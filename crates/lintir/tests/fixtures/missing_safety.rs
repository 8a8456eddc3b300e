//! Fixture: unsafe hygiene violations (analyzed as an allowlisted file).
//! Expected: US002 at the lines marked FLAG below.

pub fn undocumented(p: *mut u8) {
    unsafe { p.write(0) }; // FLAG line 5: no SAFETY comment anywhere near
}

pub fn documented(p: *mut u8) {
    // SAFETY: caller passes a valid, exclusively-owned pointer.
    unsafe { p.write(1) };
}

pub fn documented_long_block(p: *mut u8) {
    // SAFETY: the justification may be long — this block stretches well
    // past five lines and must still count, because the rule accepts
    // the whole contiguous comment block above the unsafe keyword:
    // the pointer is valid for writes (freshly allocated by the
    // caller), it is not aliased for the duration of this call, and
    // the write does not overlap any other access because the caller
    // holds the unique handle.
    #[allow(unsafe_code)]
    unsafe {
        p.write(2)
    };
}

pub fn stale_comment_does_not_count(p: *mut u8) {
    // SAFETY: this comment is separated from the unsafe block by code,
    // so it does not document it.
    let x = 1u8;
    unsafe { p.write(x) }; // FLAG line 31
}
