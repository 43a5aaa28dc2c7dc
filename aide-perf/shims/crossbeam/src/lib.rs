//! Offline stand-in for the `crossbeam::channel` API subset this workspace
//! uses: an unbounded multi-producer multi-consumer FIFO channel with
//! blocking, timed and non-blocking receives, and a two-arm `select!` over
//! `recv` operations.
//!
//! One mutex and one condition variable per channel. Senders signal only when
//! a receiver is parked, so an uncontended send is a lock, a push and an
//! unlock.

pub mod channel;

/// Blocks until one of two `recv` operations can complete and runs its arm.
///
/// The arms run outside any loop of the macro's own, so `continue`, `break`
/// and `return` inside an arm act on the caller's control flow as they do
/// with crossbeam's macro. When both channels are ready the first arm wins.
#[macro_export]
macro_rules! select {
    (
        recv($r1:expr) -> $res1:pat => $body1:expr,
        recv($r2:expr) -> $res2:pat => $body2:expr $(,)?
    ) => {{
        match $crate::channel::select2(&$r1, &$r2) {
            $crate::channel::Selected2::First($res1) => $body1,
            $crate::channel::Selected2::Second($res2) => $body2,
        }
    }};
}
