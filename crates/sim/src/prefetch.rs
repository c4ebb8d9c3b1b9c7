//! The shard loop's one hint to the memory system.
//!
//! A shard's per-database state — its engine, `sys.databases` row, open
//! segment and history — is cold by the time that database's next event
//! arrives once the fleet outgrows the cache.  The recorded lane names
//! the databases of the events to come
//! ([`EventQueue::recorded_ahead`](crate::events::EventQueue::recorded_ahead)),
//! so the loop asks for their lines a few events early.  A plain read of
//! the same lines (`std::hint::black_box`) read level when the
//! look-ahead was sized, as a load waits on the miss it means to hide,
//! so this is the prefetch instruction itself, and the crate's one
//! `unsafe`.

/// A cache line's size on the targets this runs on.
const LINE: usize = 64;

/// Ask for every cache line of `value` to be brought towards the core.
/// A hint only: what is read, computed or returned is unchanged, and on
/// targets other than x86-64 it does nothing.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (value as *const T).cast::<i8>();
        let len = std::mem::size_of_val(value);
        // The first byte of every line the value spans, the last line's
        // included however the value is aligned.
        let lines = (0..len)
            .step_by(LINE)
            .chain(len.checked_sub(1))
            .map(|offset| start.wrapping_add(offset));
        for line in lines {
            // SAFETY: a prefetch never dereferences its address and never
            // faults, whatever the address; `line` lies inside `value`,
            // which the borrow keeps alive for the call.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}
