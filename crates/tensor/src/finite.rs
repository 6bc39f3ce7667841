//! Debug-build finiteness assertions for numeric hot paths.
//!
//! The static `no-float-eq` lint (see `rll-lint`) keeps literal float
//! comparisons out of the code; [`debug_assert_finite!`] is its dynamic
//! companion: it catches the NaN/∞ values those comparisons would have
//! silently mishandled, at the point where they first appear (a gradient, a
//! loss, a confidence), instead of epochs later as a diverged run.
//!
//! The check runs only under `debug_assertions` — release builds compile it
//! to nothing, so gradient hot paths pay zero cost.
//!
//! ```
//! use rll_tensor::{debug_assert_finite, Matrix};
//!
//! let grad = Matrix::ones(2, 2);
//! debug_assert_finite!(grad, "unit gradient");        // a Matrix
//! debug_assert_finite!([0.5, 1.5], "two scalars");    // any AsRef<[f64]>
//! ```

/// Panics (debug builds only) if any value in the slice view is NaN or ±∞.
///
/// The first argument is anything `AsRef<[f64]>` — a [`crate::Matrix`], a
/// `Vec<f64>`, a slice, or a `[f64; N]` array for scalars. The second names
/// the quantity for the failure message.
#[macro_export]
macro_rules! debug_assert_finite {
    ($values:expr, $what:expr) => {
        if ::core::cfg!(debug_assertions) {
            $crate::finite::assert_all_finite(::core::convert::AsRef::as_ref(&$values), $what);
        }
    };
}

/// Support function for [`debug_assert_finite!`]; not intended for direct
/// use. Split out so the macro expansion stays tiny at every call site.
#[doc(hidden)]
pub fn assert_all_finite(values: &[f64], what: &str) {
    if let Some((index, value)) = values
        .iter()
        .enumerate()
        .find(|(_, value)| !value.is_finite())
    {
        // lint: allow(no-panic-lib) — this IS the debug-only assertion the
        // macro exists to provide; release builds never reach it.
        panic!(
            "debug_assert_finite({what}): non-finite value {value} at flat index {index} \
             of {} values",
            values.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn finite_values_pass() {
        debug_assert_finite!(Matrix::ones(3, 2), "ones");
        debug_assert_finite!(vec![0.0, -1.5, f64::MAX], "vec");
        debug_assert_finite!([42.0], "scalar");
    }

    // The two panic tests exist only where the macro checks: release builds
    // compile it away, which `release_build_ignores_non_finite` pins.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "debug_assert_finite(poisoned gradient)")]
    fn nan_panics_in_debug() {
        debug_assert_finite!([1.0, f64::NAN, 3.0], "poisoned gradient");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite value inf at flat index 2")]
    fn infinity_reports_index() {
        debug_assert_finite!([0.0, 1.0, f64::INFINITY], "exploding loss");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_build_ignores_non_finite() {
        debug_assert_finite!([1.0, f64::NAN, 3.0], "poisoned gradient");
        debug_assert_finite!([0.0, f64::NEG_INFINITY, f64::INFINITY], "exploding loss");
    }
}
