//! Thread-local scratch-buffer arena.
//!
//! The hot paths (GEMM packing panels, conv's im2col/col2im buffers, the
//! integer datapath's code buffers) need
//! large temporary buffers on every call. Allocating them fresh per call
//! costs a page-zeroing `memset` and allocator traffic per sample; this
//! arena instead keeps one buffer per slot per thread and hands it out on
//! demand, so a training epoch or attack sweep reuses the same
//! allocations across every batch item processed by a given worker.
//!
//! The arena uses *take/put* semantics rather than scoped borrows: a
//! re-entrant request for a slot that is currently checked out (possible
//! when a pool thread helps run another task while blocked — see
//! [`crate::parallel`]) simply allocates a fresh buffer instead of
//! panicking, and the larger of the two is kept on return.
//!
//! Buffers come in three element types — `f32` ([`Slot`]), `i16`
//! ([`SlotI16`]) and `i32` ([`SlotI32`]) — each with its own independent
//! per-thread arena.

use std::cell::RefCell;

/// Named `f32` scratch buffers; one live buffer per slot per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// GEMM packed A panel.
    PackA,
    /// GEMM packed B panel.
    PackB,
    /// Conv im2col patch buffer of an inference forward (a training
    /// forward gathers into the layer's own panels).
    Col,
    /// Conv backward column-gradient buffer.
    GradCol,
    /// Conv forward block-GEMM output staging buffer.
    OutBlock,
    /// Conv backward gathered-`dY` staging buffer.
    YBlock,
}

/// Named `i16` scratch buffers for the integer datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotI16 {
    /// Quantized activation codes (whole input tensor or batch rows).
    Act,
    /// Quantized weight codes.
    Weight,
    /// Transposed im2col patch codes (`[ncols][kdim]`).
    Col,
}

/// Named `i32` scratch buffers for the integer datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotI32 {
    /// Integer GEMM accumulator block.
    Acc,
}

macro_rules! typed_arena {
    ($arena:ident, $ty:ty, $slot:ty, $count:expr, $with:ident) => {
        thread_local! {
            static $arena: RefCell<[Option<Vec<$ty>>; $count]> =
                const { RefCell::new([const { None }; $count]) };
        }

        /// Runs `f` with the thread's buffer for `slot`.
        ///
        /// The buffer arrives with whatever length/contents the previous
        /// user left; callers must `clear`/`resize` it themselves. It
        /// returns to the arena afterwards (if `f` panics the buffer is
        /// merely dropped, never corrupted).
        pub(crate) fn $with<R>(slot: $slot, f: impl FnOnce(&mut Vec<$ty>) -> R) -> R {
            let mut buffer = $arena
                .with(|arena| arena.borrow_mut()[slot as usize].take())
                .unwrap_or_default();
            let result = f(&mut buffer);
            $arena.with(|arena| {
                let cell = &mut arena.borrow_mut()[slot as usize];
                let keep = match cell.as_ref() {
                    Some(existing) => existing.capacity() < buffer.capacity(),
                    None => true,
                };
                if keep {
                    *cell = Some(buffer);
                }
            });
            result
        }
    };
}

typed_arena!(ARENA, f32, Slot, 6, with_buffer);
typed_arena!(ARENA_I16, i16, SlotI16, 3, with_buffer_i16);
typed_arena!(ARENA_I32, i32, SlotI32, 1, with_buffer_i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_capacity_is_reused_across_calls() {
        let first_ptr = with_buffer(Slot::Col, |b| {
            b.clear();
            b.resize(4096, 0.0);
            b.as_ptr() as usize
        });
        let second_ptr = with_buffer(Slot::Col, |b| {
            assert!(b.capacity() >= 4096, "arena dropped the buffer");
            b.as_ptr() as usize
        });
        assert_eq!(first_ptr, second_ptr);
    }

    #[test]
    fn reentrant_take_falls_back_to_fresh_allocation() {
        with_buffer(Slot::PackA, |outer| {
            outer.resize(16, 1.0);
            // Same slot requested while checked out: must not panic.
            with_buffer(Slot::PackA, |inner| {
                assert!(inner.is_empty() || inner.as_ptr() != outer.as_ptr());
                inner.resize(32, 2.0);
            });
            assert_eq!(outer.len(), 16);
        });
        // The larger inner buffer was kept.
        with_buffer(Slot::PackA, |b| assert!(b.capacity() >= 32));
    }

    #[test]
    fn slots_are_independent() {
        with_buffer(Slot::PackB, |a| {
            a.clear();
            a.resize(8, 3.0);
            with_buffer(Slot::GradCol, |b| {
                b.clear();
                b.resize(8, 4.0);
                assert_ne!(a.as_ptr(), b.as_ptr());
            });
        });
    }

    #[test]
    fn typed_arenas_are_independent() {
        with_buffer_i16(SlotI16::Act, |a| {
            a.clear();
            a.resize(16, 7);
            with_buffer_i32(SlotI32::Acc, |b| {
                b.clear();
                b.resize(16, -3);
                assert_eq!(a[0], 7);
                assert_eq!(b[0], -3);
            });
        });
        // Capacity survives, per type.
        with_buffer_i16(SlotI16::Act, |a| assert!(a.capacity() >= 16));
        with_buffer_i32(SlotI32::Acc, |b| assert!(b.capacity() >= 16));
    }
}
