//! Known-suppressed fixture: one violation per rule, each silenced by a
//! well-formed suppression carrying a reason.

pub fn one(x: Option<u32>) -> u32 {
    // fume-lint: allow(F001) -- fixture: invariant documented here
    x.unwrap()
}

pub fn two(m: &std::sync::Mutex<u32>) -> u32 {
    // fume-lint: allow(F002) -- fixture: poisoning handled by process restart
    *m.lock().unwrap()
}

pub fn three(seed: u64) -> StdRng {
    // fume-lint: allow(F003) -- fixture: seed provenance documented
    StdRng::seed_from_u64(seed)
}

pub fn four(n: usize) -> u32 {
    // fume-lint: allow(F004) -- fixture: bounded by construction
    n as u32
}

pub fn five(x: f64) -> bool {
    x == 0.0 // fume-lint: allow(F005) -- fixture: counts stored in f64 are exact
}

pub fn six() {
    // fume-lint: allow(F006) -- fixture: sanctioned module itself
    std::thread::spawn(|| {});
}

// fume-lint: allow(F007) -- fixture: consumed internally, drop is harmless
pub struct IgnoredGuard {
    pub token: u32,
}

pub fn nine(cv: &Cv, mut g: Guard) -> Guard {
    // fume-lint: allow(F009) -- fixture: sole caller loops on the predicate
    g = cv.wait(g);
    g
}

pub fn ten(a: &Lk, b: &Lk) {
    let ga = a.lock();
    // fume-lint: allow(F010) -- lock-order: a < b (b only ever taken under a)
    let gb = b.lock();
    drop((ga, gb));
}

pub fn eleven(x: &AtomicU64) -> u64 {
    // fume-lint: allow(F011) -- fixture: relaxed is sufficient for a statistic
    x.load(Ordering::Relaxed)
}

pub fn twelve() -> Condvar {
    // fume-lint: allow(F012) -- fixture: raw primitive quarantined to this constructor
    Condvar::new()
}

pub fn thirteen() -> std::path::PathBuf {
    // fume-lint: allow(F013) -- fixture: the path is unique per checkout
    std::env::temp_dir().join("fume-fixture")
}
