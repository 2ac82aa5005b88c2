//! Minimal complex arithmetic.
//!
//! The 2-D FMM identifies the plane with ℂ; the handful of operations the
//! solver needs (arithmetic, `ln`, powers, norms) are implemented here
//! directly rather than pulling in a numerics dependency.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

/// The multiplicative identity.
pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

impl Complex {
    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Principal branch of the complex logarithm.
    #[inline]
    pub fn ln(self) -> Complex {
        Complex::new(self.abs().ln(), self.im.atan2(self.re))
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(self) -> Complex {
        let d = self.norm_sq();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Integer power by repeated squaring (exact enough for the expansion
    /// orders used here; the solver actually accumulates powers
    /// incrementally in its hot loops).
    pub fn powi(self, mut n: u32) -> Complex {
        let mut base = self;
        let mut acc = ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!(close(z + ZERO, z));
        assert!(close(z * ONE, z));
        assert!(close(z - z, ZERO));
        assert!(close(z * z.recip(), ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn modulus_and_conjugate() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sq(), 25.0);
        assert!(close(z * z.conj(), Complex::new(25.0, 0.0)));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(a * b, Complex::new(5.0, 5.0)));
        assert!(close(a / b, Complex::new(0.1, 0.7)));
    }

    #[test]
    fn ln_of_real_and_imaginary_axes() {
        let e = Complex::new(std::f64::consts::E, 0.0);
        assert!(close(e.ln(), ONE));
        let i = Complex::new(0.0, 1.0);
        assert!(close(
            i.ln(),
            Complex::new(0.0, std::f64::consts::FRAC_PI_2)
        ));
        // Re(ln z) = ln |z| — the identity the potential evaluation uses.
        let z = Complex::new(-2.5, 1.75);
        assert!((z.ln().re - z.abs().ln()).abs() < 1e-12);
    }

    #[test]
    fn powers() {
        let z = Complex::new(0.5, 0.5);
        assert!(close(z.powi(0), ONE));
        assert!(close(z.powi(1), z));
        assert!(close(z.powi(3), z * z * z));
        assert!(close(z.powi(8), z.powi(4) * z.powi(4)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1-2i");
    }
}
