//! Fixture: panic-capable calls on a fault-tolerance path.
//! Expected, as a no-panic file: PA002/PA001 at the lines marked FLAG.

pub fn bare_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // FLAG line 5
}

pub fn expect_call(x: Option<u32>) -> u32 {
    x.expect("present") // FLAG line 9
}

pub fn explicit_panic(flag: bool) {
    if flag {
        panic!("boom"); // FLAG line 14
    }
}

pub fn waived(x: Option<u32>) -> u32 {
    // PANIC-OK: documented facade contract — absence is a caller bug.
    x.unwrap()
}

pub fn waived_same_line(x: Option<u32>) -> u32 {
    x.unwrap() // PANIC-OK: covered by construction one line up
}

pub fn mentions_in_string() -> &'static str {
    "calling .unwrap() here would panic!(...)" // inside a literal: not code
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3); // in cfg(test): allowed
    }
}
