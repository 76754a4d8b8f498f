//! D004 clean fixture: the ordered executor maps per item, the reduction
//! happens sequentially afterwards, and asking for the CPU count or
//! sleeping starts no thread. Expected findings: 0.
use numerics::exec;

pub fn mean(xs: Vec<f64>) -> f64 {
    let n = xs.len();
    let doubled: Vec<f64> = exec::map(xs, |x| x * 2.0);
    let total: f64 = doubled.iter().sum();
    total / n as f64
}

pub fn cpus() -> usize {
    std::thread::sleep(std::time::Duration::from_millis(1));
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
