//! Fixture: a second library file that names some of `dead_pub.rs`' items.
use crate::dead_pub::reexported_only;
pub use crate::dead_pub::{mentioned_only as renamed, reexported_only as again};

/// Only this comment names `uncalled` and `mentioned_only`.
fn run() -> &'static str {
    called_elsewhere();
    let _ = crate_visible;
    let _ = Fields;
    "mentioned_only and const_uncalled only in a string"
}
