//! Machine-speed reference. On a shared host the speed of one core
//! changes by up to 1.9× over tens of seconds (README.md, "Host noise").
//! A fixed arithmetic kernel owned by the benchmark, timed between
//! requests, tracks that speed; each timed sample is rescaled to the
//! speed at which the kernel takes [`REFERENCE_S`]. The kernel shares no
//! code with the program, so a change to the program moves the rescaled
//! times exactly as it moves the wall times.

use std::time::Instant;

/// Kernel time (s) that defines the reference speed.
pub const REFERENCE_S: f64 = 1.6e-3;
/// Least wall time between two kernel samples, so fast requests are not
/// slowed by more than about one percent.
const MIN_INTERVAL_S: f64 = 0.1;
/// After a longer gap the old samples no longer describe the machine:
/// the window is refilled at once.
const STALE_S: f64 = 1.0;
/// The speed estimate is the median of this many latest samples.
const WINDOW: usize = 3;

pub struct Speed {
    buf: Vec<f64>,
    recent: Vec<f64>,
    last: Option<Instant>,
}

/// Exp, division and square root over a 256 KiB array: the mix of the
/// program's lane kernels, in a loop the benchmark owns.
fn kernel(buf: &mut [f64]) -> f64 {
    let t = Instant::now();
    let mut acc = 0.0;
    for r in 0..6 {
        let s = 1.0 + r as f64 * 1e-3;
        for (i, v) in buf.iter_mut().enumerate() {
            let x = (i & 1023) as f64 * 0.01 * s;
            *v = (-x * 0.25).exp() / (x * x + 1.0).sqrt() + *v * 0.5;
        }
        acc += buf[r];
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

impl Speed {
    pub fn new() -> Speed {
        let mut s = Speed {
            buf: vec![1.0; 1 << 15],
            recent: Vec::new(),
            last: None,
        };
        s.refresh();
        s
    }

    fn sample(&mut self) {
        let t = kernel(&mut self.buf);
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(t);
        self.last = Some(Instant::now());
    }

    /// Take a kernel sample unless one was taken in the last 100 ms, and
    /// a whole window of them after a gap of a second or more. Call
    /// between requests, outside timed regions.
    pub fn refresh(&mut self) {
        let gap = self
            .last
            .map_or(f64::INFINITY, |t| t.elapsed().as_secs_f64());
        let n = if gap >= STALE_S {
            WINDOW
        } else if gap >= MIN_INTERVAL_S {
            1
        } else {
            0
        };
        for _ in 0..n {
            self.sample();
        }
    }

    /// Factor that rescales a wall time measured now to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / crate::report::median(&self.recent)
    }
}

/// Timed samples of one kind: as measured, and rescaled to the reference
/// speed by the [`Speed::scale`] current at the time.
#[derive(Default)]
pub struct Times {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Times {
    pub fn push(&mut self, raw: f64, scale: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * scale);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }
}
