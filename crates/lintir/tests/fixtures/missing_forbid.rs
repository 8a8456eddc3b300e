//! Fixture: a crate root with no unsafe_code hygiene attribute.
//! Expected: US003 at line 1 when analyzed as a crate root.

pub fn hello() -> u32 {
    42
}
