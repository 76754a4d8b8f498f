//! Planar geometry for the operational area.

use rand::Rng;

/// A 2-D vector / point in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm (avoids the sqrt in hot distance checks).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Squared distance to another point.
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// Unit vector in this direction; `None` for the zero vector.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(Vec2::new(self.x / n, self.y / n))
        }
    }

    /// Scale by a scalar.
    pub fn scale(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

/// Disc-shaped operational region centered at the origin, matching the
/// paper's "operational area ... radius = 500 m".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disc {
    /// Radius in meters.
    pub radius: f64,
}

impl Disc {
    /// Create a disc of the given radius.
    ///
    /// # Panics
    /// Panics if `radius <= 0`.
    pub fn new(radius: f64) -> Self {
        assert!(radius > 0.0, "disc radius must be positive, got {radius}");
        Self { radius }
    }

    /// True when `p` lies inside (or on) the disc.
    pub fn contains(&self, p: Vec2) -> bool {
        p.norm_sq() <= self.radius * self.radius * (1.0 + 1e-12)
    }

    /// Uniform random point inside the disc (inverse-CDF radial sampling).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec2 {
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        let r = self.radius * rng.gen::<f64>().sqrt();
        Vec2::new(r * theta.cos(), r * theta.sin())
    }

    /// Clamp a point back inside the disc (projects onto the boundary).
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        let n = p.norm();
        if n <= self.radius {
            p
        } else {
            p.scale(self.radius / n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn vector_arithmetic() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(1.0, -1.0);
        assert_eq!((a + b), Vec2::new(4.0, 3.0));
        assert_eq!((a - b), Vec2::new(2.0, 5.0));
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Vec2::default().normalized().is_none());
    }

    #[test]
    fn disc_contains_and_clamp() {
        let d = Disc::new(10.0);
        assert!(d.contains(Vec2::new(6.0, 8.0)));
        assert!(!d.contains(Vec2::new(7.0, 8.0)));
        let clamped = d.clamp(Vec2::new(30.0, 40.0));
        assert!((clamped.norm() - 10.0).abs() < 1e-12);
        // interior points unchanged
        assert_eq!(d.clamp(Vec2::new(1.0, 1.0)), Vec2::new(1.0, 1.0));
    }

    #[test]
    fn uniform_samples_inside_and_spread() {
        let d = Disc::new(500.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut inside_half = 0;
        for _ in 0..n {
            let p = d.sample_uniform(&mut rng);
            assert!(d.contains(p));
            if p.norm() < 500.0 / 2.0_f64.sqrt() {
                inside_half += 1;
            }
        }
        // radius/sqrt2 disc has half the area → about half the points
        let frac = inside_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "{frac}");
    }

    #[test]
    #[should_panic]
    fn zero_radius_rejected() {
        Disc::new(0.0);
    }
}
