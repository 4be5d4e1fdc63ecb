//! Per-file rule applicability: which rules run where.
//!
//! The workspace deliberately sanctions a small number of modules for
//! otherwise-banned constructs — `fume-obs` owns the clock,
//! `fume_tabular::rng` owns randomness, `fume_tabular::workers` owns
//! scoped threads, `fume_tabular::float` owns epsilon comparison, and
//! `fume_tabular::cast` owns narrowing index casts. Everything else is
//! path policy: test/bench/example/bin targets are exempt from the
//! panic-freedom and determinism rules, and the cast rule only bites in
//! the index-arithmetic-heavy crates (`fume-forest`, `fume-lattice`).

/// Which rules apply to one source file.
#[derive(Debug, Clone, Default)]
pub struct FilePolicy {
    /// File is skipped entirely (generated/vendored — none today).
    pub skip_all: bool,
    /// F001 panic-freedom.
    pub panic_freedom: bool,
    /// F002 explicit poisoned-mutex handling.
    pub lock_unwrap: bool,
    /// F003 determinism: clock sources.
    pub time_sources: bool,
    /// F003 determinism: RNG construction.
    pub rng_construction: bool,
    /// F004 lossy narrowing casts.
    pub narrow_casts: bool,
    /// F005 exact float equality.
    pub float_eq: bool,
    /// F006 thread discipline.
    pub threads: bool,
    /// F007 `#[must_use]` on journal/builder/guard types.
    pub must_use: bool,
    /// F008 dotted string-literal names at `counter!`/`gauge!`/
    /// `histogram!` call sites.
    pub obs_names: bool,
    /// F009 condvar waits re-checked under a loop.
    pub condvar_wait: bool,
    /// F010 documented lock order when one function takes two locks.
    pub nested_locks: bool,
    /// F011 explicit atomic memory orderings.
    pub atomic_orderings: bool,
    /// F012 raw `std::sync` primitive construction.
    pub sync_construction: bool,
    /// F013 fixed temp paths, over the whole file (integration tests);
    /// test scopes are checked in every file regardless.
    pub fixed_temp_paths: bool,
}

impl FilePolicy {
    /// Every rule on — what explicit CLI file arguments and the fixture
    /// tests use.
    pub fn all() -> Self {
        FilePolicy {
            skip_all: false,
            panic_freedom: true,
            lock_unwrap: true,
            time_sources: true,
            rng_construction: true,
            narrow_casts: true,
            float_eq: true,
            threads: true,
            must_use: true,
            obs_names: true,
            condvar_wait: true,
            nested_locks: true,
            atomic_orderings: true,
            sync_construction: true,
            fixed_temp_paths: true,
        }
    }
}

/// Normalises `\` to `/` so policies match on Windows checkouts too.
fn norm(path: &str) -> String {
    path.replace('\\', "/")
}

/// The crate a workspace-relative path belongs to (`crates/forest/src/…`
/// → `forest`; the facade's `src/…` → `fume`).
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else {
        "fume"
    }
}

/// Computes the rule set for a workspace-relative path.
pub fn policy_for(path: &str) -> FilePolicy {
    let path = norm(path);
    let p = path.as_str();
    // Test, bench, example, and bin targets: panic-freedom and
    // determinism do not apply (they are allowed to unwrap, time, and
    // seed ad hoc); thread/lock discipline still does.
    let is_test_target = p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.starts_with("benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/bin/");
    let krate = crate_of(p);
    // fume-bench is the measurement harness: wall clocks and unwraps are
    // its job, so it gets the same exemptions as bench targets.
    let harness = is_test_target || krate == "bench";
    FilePolicy {
        skip_all: false,
        panic_freedom: !harness,
        lock_unwrap: true,
        time_sources: !harness && krate != "obs",
        rng_construction: !harness && p != "crates/tabular/src/rng.rs",
        narrow_casts: !is_test_target
            && matches!(krate, "forest" | "lattice")
            && p != "crates/tabular/src/cast.rs",
        float_eq: !harness && p != "crates/tabular/src/float.rs",
        threads: p != "crates/tabular/src/workers.rs",
        must_use: true,
        // The naming convention binds every call site, harnesses
        // included — a trace with an off-convention name is wrong no
        // matter who recorded it.
        obs_names: true,
        // Concurrency discipline (like F002/F006) binds harnesses too: a
        // deadlock in a bench is still a deadlock. The sanctioned sync
        // module carries inline suppressions for its own wait wrappers
        // rather than a carve-out, so F009/F010 stay on everywhere.
        condvar_wait: true,
        nested_locks: true,
        // `fume_obs::sync` and the lock-free progress ticker are the two
        // places allowed to pick atomic orderings by hand.
        atomic_orderings: p != "crates/obs/src/progress.rs" && p != "crates/obs/src/sync.rs",
        // Only the sanctioned module may construct raw primitives (it
        // wraps them).
        sync_construction: p != "crates/obs/src/sync.rs",
        // Integration-test files are test code throughout; elsewhere
        // F013 checks only `#[cfg(test)]`/`#[test]` scopes.
        fixed_temp_paths: p.contains("/tests/") || p.starts_with("tests/"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_code_gets_the_full_set() {
        let p = policy_for("crates/forest/src/forest.rs");
        assert!(p.panic_freedom && p.time_sources && p.narrow_casts && p.threads);
    }

    #[test]
    fn bench_crate_is_a_harness() {
        let p = policy_for("crates/bench/src/harness.rs");
        assert!(!p.panic_freedom && !p.time_sources);
        assert!(p.lock_unwrap && p.threads, "discipline rules still apply");
    }

    #[test]
    fn sanctioned_modules_are_carved_out() {
        assert!(!policy_for("crates/tabular/src/rng.rs").rng_construction);
        assert!(!policy_for("crates/tabular/src/workers.rs").threads);
        assert!(!policy_for("crates/tabular/src/float.rs").float_eq);
        assert!(!policy_for("crates/obs/src/span.rs").time_sources);
    }

    #[test]
    fn casts_only_bite_in_index_crates() {
        assert!(policy_for("crates/lattice/src/search.rs").narrow_casts);
        assert!(!policy_for("crates/tabular/src/stats.rs").narrow_casts);
    }

    #[test]
    fn fixed_temp_paths_bind_integration_tests_only() {
        assert!(policy_for("tests/cli.rs").fixed_temp_paths);
        assert!(policy_for("crates/forest/tests/deepcheck.rs").fixed_temp_paths);
        assert!(!policy_for("crates/forest/src/persist.rs").fixed_temp_paths);
        assert!(!policy_for("examples/model_lifecycle.rs").fixed_temp_paths);
    }

    #[test]
    fn facade_sources_are_library_code() {
        let p = policy_for("src/lib.rs");
        assert!(p.panic_freedom);
        assert!(!policy_for("src/bin/fume.rs").panic_freedom);
    }
}
