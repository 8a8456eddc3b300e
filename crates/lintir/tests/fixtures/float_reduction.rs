//! Fixture: scheduling-order-dependent reductions in parallel closures.
//! Expected: DT002 at the line marked FLAG below (none in a blessed file).

pub fn shared_accumulator(pool: &Pool, xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    pool.run(xs.len(), |i| {
        acc += xs[i]; // FLAG line 7: captured accumulator
    });
    acc
}

pub fn local_accumulator_is_fine(pool: &Pool, xs: &[f64]) -> Vec<f64> {
    pool.try_map(xs.len(), |i| {
        let mut part = 0.0;
        part += xs[i]; // local: per-task state, deterministic
        part
    })
}

pub fn waived_accumulator(pool: &Pool, xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    pool.run(xs.len(), |i| {
        // DETERMINISM-OK: guarded by a lock and integer-exact.
        acc += xs[i];
    });
    acc
}

pub struct Pool;
impl Pool {
    pub fn run(&self, _n: usize, _f: impl FnMut(usize)) {}
    pub fn try_map(&self, _n: usize, _f: impl FnMut(usize) -> f64) -> Vec<f64> {
        Vec::new()
    }
}
