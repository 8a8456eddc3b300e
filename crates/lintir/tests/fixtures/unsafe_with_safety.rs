//! Fixture: `unsafe` with a SAFETY comment.
//! Expected: US001 at the line marked FLAG, wherever the file sits
//! (a comment cannot make `unsafe` acceptable).

pub fn sneaky(p: *mut u8) {
    // SAFETY: a comment does not make this code acceptable.
    unsafe { p.write(0) }; // FLAG line 7
}

pub fn mentions_the_attr_only() {
    // Talking about #![forbid(unsafe_code)] in an attribute position is
    // hygiene, not unsafe code:
    #![allow(unused)]
}
