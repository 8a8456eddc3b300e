//! Fixture: unsafe in a crate that is not on the audited allowlist.
//! Expected: US001 at the line marked FLAG, even though a
//! SAFETY comment is present (the comment cannot waive the allowlist).

pub fn sneaky(p: *mut u8) {
    // SAFETY: a comment does not move the crate onto the allowlist.
    unsafe { p.write(0) }; // FLAG line 7
}

pub fn mentions_the_attr_only() {
    // Talking about #![forbid(unsafe_code)] in an attribute position is
    // hygiene, not unsafe code:
    #![allow(unused)]
}
