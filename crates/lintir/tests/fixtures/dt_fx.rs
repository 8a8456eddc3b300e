//! DT fixture: determinism dataflow.

pub fn hash_loop(m: &HashMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    for (_k, v) in m.iter() { // FLAG DT001 line 5
        s += v;
    }
    s
}

pub fn hash_chain(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum::<f64>() // FLAG DT001 line 12
}

pub fn pool_float(pool: &Pool) -> f64 {
    let mut e = 0.0;
    pool.run(|| {
        e += 1.0; // FLAG DT002 line 18
    });
    e
}

pub fn add_into(acc: &mut f64, v: f64) {
    *acc += v;
}

pub fn pool_indirect(pool: &Pool) -> f64 {
    let mut e = 0.0;
    pool.run(|| add_into(&mut e, 1.0)); // FLAG DT002 line 29
    e
}

pub fn pool_local_ok(pool: &Pool) {
    pool.run(|chunk| {
        let mut cursor = 0;
        cursor += 1; // precision: closure-local integer bookkeeping
    });
}

pub fn hash_waived(m: &HashMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    // DETERMINISM-OK: fixture waiver — tests assert this is honored.
    for (_k, v) in m.iter() {
        s += v;
    }
    s
}
