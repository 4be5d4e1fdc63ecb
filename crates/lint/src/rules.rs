//! The rule catalog and the token-level checking pass.
//!
//! Rules have stable IDs (`F001`…) so suppressions and docs never break
//! when messages are reworded. Each check is a window over the token
//! stream produced by [`crate::lexer::lex`]; test-scope exemptions come
//! from [`crate::scope::test_scopes`] and per-file applicability from
//! [`crate::policy::FilePolicy`].

use crate::lexer::{Lexed, Tok, TokKind};
use crate::policy::FilePolicy;
use crate::scope::test_scopes;

/// A rule violation before suppression filtering (no file/excerpt yet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiag {
    /// Stable rule ID (`F001`…`F013`, `F000` for malformed suppressions).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
}

/// Rule IDs with their one-line summaries (drives `--explain` and docs).
pub const CATALOG: &[(&str, &str)] = &[
    ("F000", "fume-lint suppression without a reason (`-- reason` is mandatory)"),
    ("F001", "panic path in library code: unwrap()/expect()/panic!/unreachable!/todo!/unimplemented!"),
    ("F002", "`lock().unwrap()`-style poisoned-mutex erasure; handle poisoning explicitly"),
    ("F003", "nondeterminism: clock source (Instant/SystemTime/std::time) or RNG construction outside sanctioned modules"),
    ("F004", "potentially lossy `as` cast to a narrow integer type in index arithmetic; use fume_tabular::cast helpers or try_into"),
    ("F005", "exact float equality (==/!= with a float operand); use fume_tabular::float epsilon helpers"),
    ("F006", "thread creation outside the sanctioned scoped worker module (fume_tabular::workers)"),
    ("F007", "journal/builder/guard type without #[must_use] (dropping one silently forfeits work)"),
    ("F008", "counter!/gauge!/histogram! name is not a dotted `layer.operation` string literal"),
    ("F009", "condvar wait whose predicate is not re-checked in a loop (spurious wakeups)"),
    ("F010", "two distinct lock acquisitions in one function without a documented `-- lock-order: A < B`"),
    ("F011", "explicit atomic memory ordering outside the sanctioned sync modules; use fume_obs::sync primitives"),
    ("F012", "raw std::sync Mutex/Condvar/RwLock construction outside fume_obs::sync; use the Tracked wrappers"),
    ("F013", "`temp_dir().join(\"<literal>\")` in test code: concurrent test runs share the path; suffix it with the process id"),
];

const NARROW_INT: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "isize"];
const MUST_USE_SUFFIXES: &[&str] = &["Journal", "Builder", "Guard", "Undo"];

fn ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// Runs every applicable rule over the lexed file.
pub fn check(lexed: &Lexed, policy: &FilePolicy) -> Vec<RawDiag> {
    let toks = &lexed.tokens;
    let exempt = test_scopes(toks);
    let mut out = Vec::new();

    // Attribute accumulation for F007 (see below).
    let mut pending_attrs: Vec<String> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];

        // ---- F007 attribute bookkeeping (also skips attr contents so
        // `#[cfg(test)]`'s `test` ident can't confuse other rules).
        if punct(t, "#") {
            let mut j = i + 1;
            if toks.get(j).map(|t| punct(t, "!")).unwrap_or(false) {
                j += 1;
            }
            if toks.get(j).map(|t| punct(t, "[")).unwrap_or(false) {
                let mut depth = 0u32;
                while j < toks.len() {
                    let a = &toks[j];
                    if a.kind == TokKind::Punct {
                        match a.text.as_str() {
                            "[" | "(" => depth += 1,
                            "]" | ")" => {
                                if depth <= 1 {
                                    j += 1;
                                    break;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                    } else if a.kind == TokKind::Ident {
                        pending_attrs.push(a.text.clone());
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }

        let in_test_scope = exempt.get(i).copied().unwrap_or(false);
        if policy.fixed_temp_paths || in_test_scope {
            check_fixed_temp_path(toks, i, &mut out);
        }
        if !in_test_scope {
            check_panic_rules(toks, i, policy, &mut out);
            check_determinism(toks, i, policy, &mut out);
            check_casts(toks, i, policy, &mut out);
            check_float_eq(toks, i, policy, &mut out);
            check_threads(toks, i, policy, &mut out);
            check_must_use(toks, i, policy, &pending_attrs, &mut out);
            check_obs_names(toks, i, policy, &mut out);
            check_atomic_orderings(toks, i, policy, &mut out);
            check_sync_construction(toks, i, policy, &mut out);
        }

        // Attribute scope: attrs attach to the next item. Visibility
        // tokens and path syntax between attr and item keep them alive;
        // anything else consumes/clears them.
        let keeps_attrs = (t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "pub" | "crate" | "in" | "super" | "self"))
            || (t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | ")" | "::"));
        if !keeps_attrs {
            pending_attrs.clear();
        }
        i += 1;
    }

    // Structural passes that need the whole stream, not a window.
    check_condvar_wait(toks, &exempt, policy, &mut out);
    check_nested_locks(toks, &exempt, policy, &mut out);

    for s in &lexed.suppressions {
        if !s.has_reason {
            out.push(RawDiag {
                rule: "F000",
                line: s.line,
                col: 1,
                message: "suppression is missing its mandatory `-- reason`".to_string(),
            });
        }
    }

    // At most one diagnostic per (rule, line): `std::time::Instant` is
    // one problem, not three.
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// F001/F002: `.unwrap()`, `.expect(…)`, and the panicking macros.
fn check_panic_rules(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    let method_call = i >= 1
        && punct(&toks[i - 1], ".")
        && toks.get(i + 1).map(|n| punct(n, "(")).unwrap_or(false);
    if method_call && (t.text == "unwrap" || t.text == "expect") {
        // `.lock().unwrap()` / `.lock().expect(…)` is the more specific
        // poisoning rule.
        let on_lock = i >= 4
            && ident(&toks[i - 4], "lock")
            && punct(&toks[i - 3], "(")
            && punct(&toks[i - 2], ")");
        if on_lock {
            if policy.lock_unwrap {
                out.push(RawDiag {
                    rule: "F002",
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`.lock().{}()` erases mutex poisoning; recover the guard or surface a typed error",
                        t.text
                    ),
                });
            }
        } else if policy.panic_freedom {
            out.push(RawDiag {
                rule: "F001",
                line: t.line,
                col: t.col,
                message: format!("`.{}()` can panic in library code; return a typed error or document a suppression", t.text),
            });
        }
        return;
    }
    if policy.panic_freedom
        && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        && toks.get(i + 1).map(|n| punct(n, "!")).unwrap_or(false)
    {
        out.push(RawDiag {
            rule: "F001",
            line: t.line,
            col: t.col,
            message: format!("`{}!` in library code; return a typed error or document a suppression", t.text),
        });
    }
}

/// F003: clock sources and RNG construction.
fn check_determinism(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    if policy.time_sources {
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(RawDiag {
                rule: "F003",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` is a wall-clock source; route timing through `fume_obs` (spans or `clock::Stopwatch`)",
                    t.text
                ),
            });
            return;
        }
        if ident(t, "std")
            && toks.get(i + 1).map(|n| punct(n, "::")).unwrap_or(false)
            && toks.get(i + 2).map(|n| ident(n, "time")).unwrap_or(false)
        {
            out.push(RawDiag {
                rule: "F003",
                line: t.line,
                col: t.col,
                message: "`std::time` outside fume-obs; import `fume_obs::clock` instead".to_string(),
            });
            return;
        }
    }
    if policy.rng_construction && t.text == "seed_from_u64" {
        out.push(RawDiag {
            rule: "F003",
            line: t.line,
            col: t.col,
            message: "RNG construction outside `fume_tabular::rng`; thread an existing stream through, or suppress with the seed's provenance".to_string(),
        });
    }
}

/// F004: `as <narrow-int>` in index-arithmetic crates.
fn check_casts(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.narrow_casts {
        return;
    }
    let t = &toks[i];
    if !ident(t, "as") {
        return;
    }
    if let Some(target) = toks.get(i + 1) {
        if target.kind == TokKind::Ident && NARROW_INT.contains(&target.text.as_str()) {
            out.push(RawDiag {
                rule: "F004",
                line: t.line,
                col: t.col,
                message: format!(
                    "`as {}` silently truncates; use `fume_tabular::cast` helpers or `try_into`",
                    target.text
                ),
            });
        }
    }
}

/// F005: `==`/`!=` with a float literal operand.
fn check_float_eq(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.float_eq {
        return;
    }
    let t = &toks[i];
    if !(t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=")) {
        return;
    }
    let float_neighbour = (i >= 1 && toks[i - 1].kind == TokKind::Float)
        || toks.get(i + 1).map(|n| n.kind == TokKind::Float).unwrap_or(false)
        // `x != -0.5`: the literal hides behind a unary minus.
        || (toks.get(i + 1).map(|n| punct(n, "-")).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.kind == TokKind::Float).unwrap_or(false));
    if float_neighbour {
        out.push(RawDiag {
            rule: "F005",
            line: t.line,
            col: t.col,
            message: format!(
                "`{}` against a float literal; use `fume_tabular::float::approx_eq`/`is_zero` (or compare bits deliberately)",
                t.text
            ),
        });
    }
}

/// F006: `thread::spawn`/`thread::scope` outside the sanctioned module.
fn check_threads(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.threads {
        return;
    }
    let t = &toks[i];
    if !ident(t, "thread") {
        return;
    }
    if toks.get(i + 1).map(|n| punct(n, "::")).unwrap_or(false) {
        if let Some(target) = toks.get(i + 2) {
            if target.kind == TokKind::Ident
                && (target.text == "spawn" || target.text == "scope")
            {
                out.push(RawDiag {
                    rule: "F006",
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`thread::{}` outside `fume_tabular::workers`; use the sanctioned parallel helpers",
                        target.text
                    ),
                });
            }
        }
    }
}

/// F007: `struct FooJournal`/`FooBuilder`/`FooGuard` without
/// `#[must_use]` among its attributes.
fn check_must_use(
    toks: &[Tok],
    i: usize,
    policy: &FilePolicy,
    pending_attrs: &[String],
    out: &mut Vec<RawDiag>,
) {
    if !policy.must_use {
        return;
    }
    let t = &toks[i];
    if !ident(t, "struct") {
        return;
    }
    let Some(name) = toks.get(i + 1) else { return };
    if name.kind != TokKind::Ident {
        return;
    }
    let flagged = MUST_USE_SUFFIXES.iter().any(|s| name.text.ends_with(s) && name.text != *s);
    if flagged && !pending_attrs.iter().any(|a| a == "must_use") {
        out.push(RawDiag {
            rule: "F007",
            line: name.line,
            col: name.col,
            message: format!(
                "`{}` looks like a journal/builder/guard handle; annotate the type `#[must_use]` so dropping it is a compile warning",
                name.text
            ),
        });
    }
}

/// F008: `counter!(…)`, `gauge!(…)` and `histogram!(…)` must name their
/// metric with a string literal of dotted lowercase segments
/// (`layer.operation[.detail]`) — anything else (a variable, a computed
/// name, CamelCase, a segmentless word) makes traces ungreppable and the
/// vocabulary table in `docs/observability.md` unenforceable.
fn check_obs_names(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.obs_names {
        return;
    }
    let t = &toks[i];
    if t.kind != TokKind::Ident
        || !matches!(t.text.as_str(), "counter" | "gauge" | "histogram")
    {
        return;
    }
    // The macro-call shape `name!(`; `macro_rules! counter {` has `{`
    // after the bang and is not matched.
    if !(toks.get(i + 1).map(|n| punct(n, "!")).unwrap_or(false)
        && toks.get(i + 2).map(|n| punct(n, "(")).unwrap_or(false))
    {
        return;
    }
    let Some(arg) = toks.get(i + 3) else { return };
    if arg.kind != TokKind::Str {
        out.push(RawDiag {
            rule: "F008",
            line: t.line,
            col: t.col,
            message: format!(
                "`{}!` name must be a string literal, not an expression — the vocabulary must be greppable",
                t.text
            ),
        });
        return;
    }
    if !valid_obs_name(&arg.text) {
        out.push(RawDiag {
            rule: "F008",
            line: arg.line,
            col: arg.col,
            message: format!(
                "`\"{}\"` does not follow the `layer.operation` convention (two or more dotted segments of `[a-z0-9_]`)",
                arg.text
            ),
        });
    }
}

/// F011: a bare `Ordering::<memory-ordering>` literal. Raw atomics are
/// sanctioned only inside `fume_obs::{sync, progress}`; everything else
/// uses the `fume_obs::sync` primitives (`Flag`, `Counter`, the Tracked
/// locks), which pick their orderings once, in one audited place.
/// `std::cmp::Ordering::{Less, Equal, Greater}` shares the type name but
/// not the variants, so it never matches.
fn check_atomic_orderings(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.atomic_orderings {
        return;
    }
    let t = &toks[i];
    if !ident(t, "Ordering") {
        return;
    }
    if !toks.get(i + 1).map(|n| punct(n, "::")).unwrap_or(false) {
        return;
    }
    let Some(variant) = toks.get(i + 2) else { return };
    if variant.kind == TokKind::Ident
        && matches!(
            variant.text.as_str(),
            "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
        )
    {
        out.push(RawDiag {
            rule: "F011",
            line: t.line,
            col: t.col,
            message: format!(
                "`Ordering::{}` outside the sanctioned sync modules; use `fume_obs::sync` primitives (Flag/Counter/TrackedMutex) instead of hand-picked orderings",
                variant.text
            ),
        });
    }
}

/// F012: constructing `std::sync::{Mutex, Condvar, RwLock}` directly.
/// The sanctioned constructors live in `fume_obs::sync` (`TrackedMutex`,
/// `TrackedCondvar`), which add site names, poison-recovery policy, and
/// lock-order tracking — a raw primitive opts out of all three.
fn check_sync_construction(toks: &[Tok], i: usize, policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.sync_construction {
        return;
    }
    let t = &toks[i];
    if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "Mutex" | "Condvar" | "RwLock") {
        return;
    }
    if !toks.get(i + 1).map(|n| punct(n, "::")).unwrap_or(false) {
        return;
    }
    let Some(ctor) = toks.get(i + 2) else { return };
    if ctor.kind == TokKind::Ident && matches!(ctor.text.as_str(), "new" | "default") {
        let wrapper = if t.text == "Condvar" { "TrackedCondvar" } else { "TrackedMutex" };
        out.push(RawDiag {
            rule: "F012",
            line: t.line,
            col: t.col,
            message: format!(
                "`{}::{}` constructs a raw std::sync primitive; use `fume_obs::sync::{wrapper}` so the site is named, poison-recovered, and lock-order tracked",
                t.text, ctor.text
            ),
        });
    }
}

/// F013: `temp_dir().join("literal")` — a fixed path under the shared
/// temp directory. Two test processes running at once (two checkouts,
/// or `cargo test` beside `scripts/verify.sh`) then read and delete each
/// other's files. A path built with `format!` (e.g. suffixed with
/// `std::process::id()`) passes.
fn check_fixed_temp_path(toks: &[Tok], i: usize, out: &mut Vec<RawDiag>) {
    let Some([t, open, close, dot, join, paren, lit, end]) = toks.get(i..i + 8) else {
        return;
    };
    let fixed = ident(t, "temp_dir")
        && punct(open, "(")
        && punct(close, ")")
        && punct(dot, ".")
        && ident(join, "join")
        && punct(paren, "(")
        && lit.kind == TokKind::Str
        && punct(end, ")");
    if fixed {
        out.push(RawDiag {
            rule: "F013",
            line: t.line,
            col: t.col,
            message: format!(
                "`temp_dir().join({})` is a fixed path every concurrent test run shares; add the process id (`format!(\"…-{{}}\", std::process::id())`)",
                lit.text
            ),
        });
    }
}

/// F009: `.wait(…)` / `.wait_timeout(…)` whose result is not re-checked
/// under an enclosing `while`/`loop`/`for`. Condvars wake spuriously;
/// a wait that is not wrapped in a predicate loop is a latent hang or a
/// phantom wakeup bug. The check is syntactic: the call must sit inside
/// at least one loop-introduced brace.
fn check_condvar_wait(toks: &[Tok], exempt: &[bool], policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.condvar_wait {
        return;
    }
    // Brace stack: `true` for braces opened by a loop keyword.
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident if matches!(t.text.as_str(), "while" | "loop" | "for") => {
                pending_loop = true;
            }
            TokKind::Punct if t.text == "{" => {
                stack.push(pending_loop);
                pending_loop = false;
            }
            TokKind::Punct if t.text == "}" => {
                stack.pop();
            }
            TokKind::Punct if t.text == ";" => {
                pending_loop = false;
            }
            TokKind::Ident
                if matches!(t.text.as_str(), "wait" | "wait_timeout")
                    && i >= 1
                    && punct(&toks[i - 1], ".")
                    && toks.get(i + 1).map(|n| punct(n, "(")).unwrap_or(false) =>
            {
                if exempt.get(i).copied().unwrap_or(false) {
                    continue;
                }
                if !stack.iter().any(|&l| l) {
                    out.push(RawDiag {
                        rule: "F009",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`.{}(…)` outside a `while`/`loop`: condvars wake spuriously, so the predicate must be re-checked in a loop",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// The dotted receiver chain of a `.lock()` call, walking back from the
/// `.` at `toks[k]`. Returns `None` for computed receivers
/// (`stdout().lock()`), which name no stable lock site.
fn lock_receiver(toks: &[Tok], mut k: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    while let Some(prev) = k.checked_sub(1).map(|p| &toks[p]) {
        if prev.kind == TokKind::Punct && prev.text == ")" {
            return None;
        }
        if prev.kind != TokKind::Ident {
            break;
        }
        parts.push(prev.text.clone());
        k -= 1;
        let Some(sep) = k.checked_sub(1).map(|p| &toks[p]) else { break };
        if sep.kind == TokKind::Punct && (sep.text == "." || sep.text == "::") {
            k -= 1;
            continue;
        }
        break;
    }
    if parts.is_empty() {
        None
    } else {
        parts.reverse();
        Some(parts.join("."))
    }
}

/// F010: two (or more) *distinct* `.lock()` receivers inside one
/// function body. Two locks in one scope is where lock-order inversions
/// are born, so the site must either restructure or carry a suppression
/// documenting the global order (`-- lock-order: A < B`, enforced by
/// [`crate::lint_source`]). The diagnostic lands on the first
/// acquisition of the *second* distinct receiver — the edge that creates
/// the ordering obligation.
fn check_nested_locks(toks: &[Tok], exempt: &[bool], policy: &FilePolicy, out: &mut Vec<RawDiag>) {
    if !policy.nested_locks {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        if !ident(&toks[i], "fn") {
            i += 1;
            continue;
        }
        // Locate the body `{`; a `;` or `}` first means there is no body
        // here (trait method declaration, fn-pointer type, field).
        let mut j = i + 1;
        let mut open = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        open = Some(j);
                        break;
                    }
                    ";" | "}" => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(start) = open else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i64;
        let mut k = start;
        let mut seen: Vec<String> = Vec::new();
        let mut diag: Option<(u32, u32, String, String)> = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                if t.text == "{" {
                    depth += 1;
                } else if t.text == "}" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            if ident(t, "lock")
                && k >= 1
                && punct(&toks[k - 1], ".")
                && toks.get(k + 1).map(|n| punct(n, "(")).unwrap_or(false)
                && !exempt.get(k).copied().unwrap_or(false)
            {
                if let Some(recv) = lock_receiver(toks, k - 1) {
                    if !seen.contains(&recv) {
                        if let (Some(first), None) = (seen.first(), &diag) {
                            diag = Some((t.line, t.col, first.clone(), recv.clone()));
                        }
                        seen.push(recv);
                    }
                }
            }
            k += 1;
        }
        if let Some((line, col, a, b)) = diag {
            out.push(RawDiag {
                rule: "F010",
                line,
                col,
                message: format!(
                    "`{b}.lock()` in a function that also locks `{a}`; document the acquisition order with `-- lock-order: {a} < {b}` (or restructure so one scope holds one lock)"
                ),
            });
        }
        i = start + 1;
    }
}

/// Two or more `.`-separated segments, each nonempty and drawn from
/// `[a-z0-9_]`.
fn valid_obs_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<RawDiag> {
        check(&lex(src), &FilePolicy::all())
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_in_library_code_is_f001() {
        assert_eq!(rules_hit("fn f() { x.unwrap(); }"), vec!["F001"]);
        assert_eq!(rules_hit("fn f() { x.expect(\"reason\"); }"), vec!["F001"]);
        assert_eq!(rules_hit("fn f() { panic!(\"boom\"); }"), vec!["F001"]);
        assert_eq!(rules_hit("fn f() { unreachable!(); }"), vec!["F001"]);
    }

    #[test]
    fn unwrap_in_tests_is_fine() {
        assert!(rules_hit("#[cfg(test)] mod t { fn f() { x.unwrap(); } }").is_empty());
        assert!(rules_hit("#[test] fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_f001() {
        assert!(rules_hit("fn f() { x.unwrap_or_else(|| 3); x.unwrap_or(4); }").is_empty());
    }

    #[test]
    fn lock_unwrap_is_f002_not_f001() {
        assert_eq!(rules_hit("fn f() { m.lock().unwrap(); }"), vec!["F002"]);
        assert_eq!(rules_hit("fn f() { m.lock().expect(\"l\"); }"), vec!["F002"]);
    }

    #[test]
    fn clock_sources_are_f003() {
        assert_eq!(rules_hit("fn f() { let t = Instant::now(); }"), vec!["F003"]);
        assert_eq!(rules_hit("use std::time::Duration;"), vec!["F003"]);
        assert_eq!(rules_hit("fn f() { SystemTime::now(); }"), vec!["F003"]);
    }

    #[test]
    fn rng_construction_is_f003() {
        assert_eq!(rules_hit("fn f() { StdRng::seed_from_u64(7); }"), vec!["F003"]);
    }

    #[test]
    fn narrowing_casts_are_f004() {
        assert_eq!(rules_hit("fn f() { let x = n as u32; }"), vec!["F004"]);
        assert!(rules_hit("fn f() { let x = n as u64; let y = n as usize; }").is_empty());
    }

    #[test]
    fn float_equality_is_f005() {
        assert_eq!(rules_hit("fn f() { if x == 0.0 {} }"), vec!["F005"]);
        assert_eq!(rules_hit("fn f() { if 1.5 != y {} }"), vec!["F005"]);
        assert_eq!(rules_hit("fn f() { if y != -0.5 {} }"), vec!["F005"]);
        assert!(rules_hit("fn f() { if x == 0 {} }").is_empty());
    }

    #[test]
    fn thread_spawn_and_scope_are_f006() {
        assert_eq!(rules_hit("fn f() { std::thread::spawn(|| {}); }"), vec!["F006"]);
        assert_eq!(rules_hit("fn f() { thread::scope(|s| {}); }"), vec!["F006"]);
        assert!(rules_hit("fn f() { scope.spawn(|| {}); }").is_empty());
    }

    #[test]
    fn fixed_temp_paths_are_f013_even_in_test_scopes() {
        let fixed = "fn f() { let p = std::env::temp_dir().join(\"fume-x\"); }";
        assert_eq!(rules_hit(fixed), vec!["F013"]);
        let in_test = "#[cfg(test)]\nmod t { #[test] fn f() { temp_dir().join(\"a.bin\"); } }";
        assert_eq!(rules_hit(in_test), vec!["F013"]);
        let pid = "fn f() { temp_dir().join(format!(\"x-{}\", std::process::id())); }";
        assert!(rules_hit(pid).is_empty(), "a pid-suffixed path passes");
        assert!(rules_hit("fn f() { temp_dir().join(name); }").is_empty());
    }

    #[test]
    fn must_use_suffix_types_are_f007() {
        assert_eq!(rules_hit("pub struct EventJournal { x: u32 }"), vec!["F007"]);
        assert!(rules_hit("#[must_use]\npub struct EventJournal { x: u32 }").is_empty());
        assert!(rules_hit("#[must_use = \"reason\"]\n#[derive(Debug)]\npub struct FumeBuilder {}").is_empty());
        assert!(rules_hit("pub struct Journal {}").is_empty(), "bare suffix name is not flagged");
    }

    #[test]
    fn obs_macro_names_are_f008() {
        assert!(rules_hit("fn f() { fume_obs::counter!(\"ckpt.bytes_written\", 1); }").is_empty());
        assert!(rules_hit("fn f() { gauge!(\"forest.persist.bytes\", 1.0); }").is_empty());
        assert_eq!(rules_hit("fn f() { counter!(NAME, 1); }"), vec!["F008"], "non-literal name");
        assert_eq!(rules_hit("fn f() { gauge!(\"BadCase.Name\", 1.0); }"), vec!["F008"]);
        assert_eq!(rules_hit("fn f() { histogram!(\"nosegments\", 1); }"), vec!["F008"]);
        assert_eq!(rules_hit("fn f() { counter!(\"trailing.\", 1); }"), vec!["F008"]);
        // Not macro calls: a variable named counter, a macro definition.
        assert!(rules_hit("fn f() { let counter = 1; if counter != (2) {} }").is_empty());
        assert!(rules_hit("macro_rules! counter { ($n:expr) => {}; }").is_empty());
    }

    #[test]
    fn cfg_test_attr_idents_do_not_leak_into_rules() {
        // The `test` ident inside #[cfg(test)] must not trip anything.
        assert!(rules_hit("#[cfg(test)] mod t { }").is_empty());
    }

    #[test]
    fn missing_reason_is_f000() {
        let src = "// fume-lint: allow(F001)\nfn f() { x.unwrap(); }";
        let rules = rules_hit(src);
        assert!(rules.contains(&"F000"), "{rules:?}");
    }

    #[test]
    fn one_diagnostic_per_rule_per_line() {
        let hits = run("use std::time::Instant;");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn unlooped_condvar_wait_is_f009() {
        assert_eq!(
            rules_hit("fn f() { let g = cv.wait(g); }"),
            vec!["F009"],
            "bare wait"
        );
        assert_eq!(
            rules_hit("fn f() { let r = cv.wait_timeout(g, d); }"),
            vec!["F009"],
            "bare wait_timeout"
        );
        // An `if` is not a loop: the predicate is checked once.
        assert_eq!(rules_hit("fn f() { if !*g { g = cv.wait(g); } }"), vec!["F009"]);
    }

    #[test]
    fn looped_condvar_wait_is_fine() {
        assert!(rules_hit("fn f() { while !*g { g = cv.wait(g); } }").is_empty());
        assert!(rules_hit("fn f() { loop { g = cv.wait(g); if *g { break; } } }").is_empty());
        // The loop may be an ancestor, not the immediate parent.
        assert!(rules_hit("fn f() { while !*g { if x { g = cv.wait(g); } } }").is_empty());
        // `wait_while` manages its own loop; only bare wait/wait_timeout match.
        assert!(rules_hit("fn f() { let g = cv.wait_while(g, |v| !*v); }").is_empty());
        // A loop *after* the wait does not cover it.
        assert_eq!(rules_hit("fn f() { g = cv.wait(g); loop { step(); } }"), vec!["F009"]);
    }

    #[test]
    fn two_distinct_locks_in_one_fn_are_f010() {
        let src = "fn f() {\n    let a = m1.lock();\n    let b = m2.lock();\n}";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].rule, hits[0].line), ("F010", 3), "flagged at the second receiver");
        // Dotted receiver chains are distinct sites.
        assert_eq!(
            rules_hit("fn f() { let a = self.state.lock(); let b = job.slot.lock(); }"),
            vec!["F010"]
        );
    }

    #[test]
    fn single_or_repeated_locks_are_not_f010() {
        assert!(rules_hit("fn f() { let a = m.lock(); }").is_empty());
        assert!(rules_hit("fn f() { let a = m.lock(); drop(a); let b = m.lock(); }").is_empty());
        // Computed receivers name no stable site.
        assert!(rules_hit("fn f() { let a = io::stdout().lock(); let b = m.lock(); }").is_empty());
        // Separate functions are separate scopes.
        assert!(rules_hit("fn f() { m1.lock(); }\nfn g() { m2.lock(); }").is_empty());
    }

    #[test]
    fn fn_pointer_types_do_not_confuse_f010() {
        // The `fn` keyword in a type position has no body; the scanner
        // must not attribute the next function's braces to it.
        let src = "pub struct R { cb: fn(&mut u32) }\nfn f() { let a = m1.lock(); let b = m2.lock(); }";
        let hits = run(src);
        assert_eq!(hits.iter().map(|d| d.rule).collect::<Vec<_>>(), vec!["F010"], "{hits:?}");
    }

    #[test]
    fn atomic_orderings_are_f011() {
        assert_eq!(rules_hit("fn f() { x.load(Ordering::Relaxed); }"), vec!["F011"]);
        assert_eq!(rules_hit("fn f() { x.store(1, Ordering::Release); }"), vec!["F011"]);
        assert_eq!(
            rules_hit("fn f() { x.fetch_add(1, Ordering::SeqCst); }"),
            vec!["F011"]
        );
        // std::cmp::Ordering variants share the type name, not the rule.
        assert!(rules_hit("fn f() { matches!(o, Ordering::Less | Ordering::Greater) }").is_empty());
        assert!(rules_hit("fn f() -> Ordering { a.cmp(&b) }").is_empty());
    }

    #[test]
    fn raw_sync_construction_is_f012() {
        assert_eq!(rules_hit("fn f() { let m = Mutex::new(0); }"), vec!["F012"]);
        assert_eq!(rules_hit("fn f() { let c = Condvar::new(); }"), vec!["F012"]);
        assert_eq!(rules_hit("fn f() { let l = RwLock::new(0); }"), vec!["F012"]);
        assert_eq!(rules_hit("fn f() { let m: Mutex<u32> = Mutex::default(); }"), vec!["F012"]);
        // The sanctioned wrappers and non-constructing mentions pass.
        assert!(rules_hit("fn f() { let m = TrackedMutex::new(\"site\", 0); }").is_empty());
        assert!(rules_hit("fn f(m: &Mutex<u32>) {}").is_empty());
    }

    #[test]
    fn sync_rules_are_exempt_in_test_scopes() {
        let src = "#[cfg(test)] mod t { fn f() { let m = Mutex::new(0); let g = cv.wait(g); x.load(Ordering::Relaxed); a.lock(); b.lock(); } }";
        assert!(rules_hit(src).is_empty());
    }
}
