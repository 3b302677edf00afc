//! Kernel analysis: a dynamic hazard sanitizer and a symbolic
//! conflict-freedom prover.
//!
//! Two cooperating layers examine kernels from opposite directions:
//!
//! * **Dynamic sanitizer** ([`Sanitizer`]): shadow memory woven into
//!   [`BlockSim`](crate::BlockSim) through its [`Hooks`](crate::Hooks),
//!   with [`Hooks::CHECKS`](crate::Hooks::CHECKS) set so every access is
//!   routed through it. It watches one concrete execution
//!   and flags inter-lane races between barriers, out-of-bounds and
//!   uninitialized shared reads, and lock-step divergence — with forensic
//!   reports naming phase, warp, lanes, and addresses.
//! * **Symbolic prover** ([`prove`]): an affine address-expression IR
//!   ([`Pattern`]) describing each kernel phase's shared-memory schedule,
//!   plus number-theoretic certification (via `cfmerge-numtheory`'s gcd
//!   and Corollary 17/18 predicates) that a schedule is bank-conflict-free
//!   for **all** inputs, lane values, and rounds — not just the inputs a
//!   profiler happened to see.
//!
//! A block's default hooks are `()`, a zero-sized type whose hooks are
//! empty `#[inline]` bodies: unchecked simulations compile to exactly the
//! code they ran before this module existed.

mod affine;
mod lint;
mod prover;
mod sanitizer;
mod shape;

pub use affine::{AffineForm, Pattern};
pub use lint::{lint_phases, Access, LintFinding, PhaseIr};
pub use prover::{cross_validate, cross_validate_on, prove, prove_on, Certificate, Verdict};
pub use sanitizer::{Finding, Hazard, Sanitizer};
pub use shape::BankShape;
