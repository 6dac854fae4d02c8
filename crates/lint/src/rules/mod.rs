//! The repo-grounded rule set.
//!
//! Each rule encodes an invariant the codebase has actually been burned
//! by (or deliberately hardened against); see `DESIGN.md` §6 for the
//! rule table and the policy on allowlists versus inline waivers.

pub mod error_class;
pub mod no_sleep_poll;
pub mod opcode_sync;
pub mod unwrap;
pub mod wallclock;
pub mod wire_inline;
