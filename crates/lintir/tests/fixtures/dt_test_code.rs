//! DT fixture: test code is checked like production code.

pub fn helper_total(m: &HashMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    for v in m.values() { // FLAG DT001 line 5
        s += v;
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn sums_in_hash_order() {
        let m: HashMap<u32, f64> = HashMap::new();
        let s: f64 = m.values().sum(); // FLAG DT001 line 16
        assert!(s == 0.0);
    }
}
