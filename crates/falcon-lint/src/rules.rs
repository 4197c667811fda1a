//! The rule families and their token-stream implementations.
//!
//! Every rule is a linear scan over one file's lexed token stream with a
//! test-region mask (tokens inside `#[cfg(test)]` modules and `#[test]`
//! functions are exempt — test code may unwrap and compare floats freely).
//! The one cross-file rule, `lock-order`, is a per-file scan too: each file
//! contributes `A → B` lock edges, and `check_lock_order` looks for cycles
//! once over the edges of every file.
//! The rules are deliberately heuristic: they trade soundness for zero
//! dependencies and zero configuration, and every false positive has an
//! escape hatch (`// falcon-lint::allow(rule, reason = "...")`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Token, TokenKind};
use crate::parse::{loop_bodies, matching_delim};

/// The rule families falcon-lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock time, ambient RNG, or iteration-order-dependent
    /// containers in the deterministic crates.
    Determinism,
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/asserts in non-test
    /// library code.
    PanicSafety,
    /// A mutex guard held across a blocking operation.
    LockAcrossBlocking,
    /// `==`/`!=` against a floating-point literal.
    FloatCmp,
    /// Arithmetic/comparison/assignment mixing identifiers with
    /// incompatible unit suffixes.
    UnitMismatch,
    /// Float time accumulated incrementally (`t += dt`) inside a loop
    /// outside the blessed time-integration modules.
    FloatTimeAccum,
    /// A cycle in the workspace lock-order graph (potential deadlock), or
    /// a mutex re-acquired while its guard is live.
    LockOrder,
    /// A malformed `falcon-lint::allow(...)` directive, or one that
    /// silences nothing.
    BadSuppression,
}

impl Rule {
    /// Stable rule name used in suppressions and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic-safety",
            Rule::LockAcrossBlocking => "lock-across-blocking",
            Rule::FloatCmp => "float-cmp",
            Rule::UnitMismatch => "unit-mismatch",
            Rule::FloatTimeAccum => "float-time-accum",
            Rule::LockOrder => "lock-order",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// Parse a rule name (as written in suppressions).
    pub fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "determinism" => Rule::Determinism,
            "panic-safety" => Rule::PanicSafety,
            "lock-across-blocking" => Rule::LockAcrossBlocking,
            "float-cmp" => Rule::FloatCmp,
            "unit-mismatch" => Rule::UnitMismatch,
            "float-time-accum" => Rule::FloatTimeAccum,
            "lock-order" => Rule::LockOrder,
            "bad-suppression" => Rule::BadSuppression,
            _ => return None,
        })
    }

    /// All enforceable rule families (excludes the internal
    /// [`Rule::BadSuppression`]).
    pub const FAMILIES: [Rule; 7] = [
        Rule::Determinism,
        Rule::PanicSafety,
        Rule::LockAcrossBlocking,
        Rule::FloatCmp,
        Rule::UnitMismatch,
        Rule::FloatTimeAccum,
        Rule::LockOrder,
    ];
}

/// One lint finding, pre- or post-suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A lock-order edge: lock `from` was held when `to` was acquired at
/// `file:line`. Lock identity is the receiver field/binding name before
/// `.lock()` — a heuristic that matches this workspace's style of one
/// descriptive mutex field per subsystem.
#[derive(Debug, Clone)]
pub(crate) struct LockEdge {
    /// The lock whose guard is live.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Repo-relative path of the witness site.
    pub file: String,
    /// 1-based line of the inner `.lock()`.
    pub line: u32,
}

/// Crates whose library code must be deterministic under a seed (the
/// paper's figures are rerun-comparable only if these never read ambient
/// entropy or wall-clock time). Wall-clock time is legal only in
/// `falcon-net`/`falcon-transfer`/`falcon-cli`, behind the harness seam.
pub const DETERMINISM_CRATES: [&str; 7] = [
    "falcon-sim",
    "falcon-core",
    "falcon-gp",
    "falcon-tcp",
    "falcon-trace",
    "falcon-fleet",
    "falcon-rl",
];

/// Identifiers that read wall-clock time.
const WALL_CLOCK: [&str; 2] = ["Instant", "SystemTime"];
/// Identifiers that read ambient entropy.
const AMBIENT_RNG: [&str; 3] = ["thread_rng", "from_entropy", "random"];
/// Containers whose iteration order is nondeterministic across runs.
const ORDER_HAZARD: [&str; 2] = ["HashMap", "HashSet"];

/// Method names that block the calling thread (used by
/// [`Rule::LockAcrossBlocking`]).
const BLOCKING_METHODS: [&str; 10] = [
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "send",
    "write_all",
    "read_exact",
    "read_to_end",
    "accept",
    "wait",
];
/// Free/associated functions that block (matched as `ident (`).
const BLOCKING_CALLS: [&str; 2] = ["sleep", "connect"];

/// Files where incremental float time accumulation is the module's audited
/// job (the DES engine integrates between exact event boundaries and owns
/// the only blessed accumulators).
const BLESSED_TIME_ACCUM: [&str; 1] = ["crates/falcon-sim/src/des.rs"];

/// Idents treated as time variables even without a unit suffix.
const TIME_NAMES: [&str; 5] = ["t", "time", "now", "clock", "elapsed"];

/// Scan context shared by all rules for one file.
pub(crate) struct FileInput<'a> {
    /// Tokens of the file, comments and strings stripped.
    pub tokens: &'a [Token],
    /// `test_mask[i]` is true when token `i` is inside a test region.
    pub test_mask: &'a [bool],
    /// Name of the crate the file belongs to (e.g. `falcon-sim`).
    pub crate_name: &'a str,
    /// Repo-relative path.
    pub file: &'a str,
}

impl FileInput<'_> {
    fn finding(&self, rule: Rule, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.file.to_string(),
            line,
            message,
        }
    }
}

/// Run every rule family over one file. Findings go to `out`; the file's
/// lock-order edges go to `edges` for the workspace-wide cycle check.
pub(crate) fn check_file(input: &FileInput<'_>, out: &mut Vec<Finding>, edges: &mut Vec<LockEdge>) {
    check_determinism(input, out);
    check_panic_safety(input, out);
    check_locks(input, out, edges);
    check_float_cmp(input, out);
    check_unit_mismatch(input, out);
    check_float_time_accum(input, out);
}

/// Rule 1: determinism. The seeded crates must not read wall-clock time or
/// ambient entropy, and must not use iteration-order-dependent containers.
fn check_determinism(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.contains(&input.crate_name) {
        return;
    }
    for (i, tok) in input.tokens.iter().enumerate() {
        if input.test_mask[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if WALL_CLOCK.contains(&name) {
            out.push(input.finding(
                Rule::Determinism,
                tok.line,
                format!(
                    "`{name}` reads wall-clock time; {} must be deterministic under a seed \
                     (route time through the harness, or move this to falcon-net/falcon-transfer)",
                    input.crate_name
                ),
            ));
        } else if AMBIENT_RNG.contains(&name) {
            // `random` is only a hazard as a call (`random()`), not as a
            // field or module name.
            if name == "random" && !next_is(input.tokens, i, "(") {
                continue;
            }
            out.push(input.finding(
                Rule::Determinism,
                tok.line,
                format!(
                    "`{name}` draws ambient entropy; use an explicitly seeded `StdRng` \
                     so reruns are bit-identical"
                ),
            ));
        } else if ORDER_HAZARD.contains(&name) {
            out.push(input.finding(
                Rule::Determinism,
                tok.line,
                format!(
                    "`{name}` iterates in a nondeterministic order; use `BTreeMap`/`BTreeSet` \
                     or a `Vec` so traces are rerun-stable"
                ),
            ));
        }
    }
}

/// Rule 2: panic-safety. Library code on the probe/transfer path must
/// degrade, not abort: no `unwrap`, `expect`, `panic!`, `unreachable!`,
/// `todo!`, `unimplemented!`, or `assert!`-family macros outside tests.
/// (`debug_assert!` is fine: it vanishes in release builds.)
fn check_panic_safety(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    for (i, tok) in input.tokens.iter().enumerate() {
        if input.test_mask[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let is_method = matches!(name, "unwrap" | "expect")
            && prev_is(input.tokens, i, ".")
            && next_is(input.tokens, i, "(");
        let is_macro = matches!(
            name,
            "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
                | "assert"
                | "assert_eq"
                | "assert_ne"
        ) && next_is(input.tokens, i, "!");
        if is_method {
            out.push(input.finding(
                Rule::PanicSafety,
                tok.line,
                format!(
                    "`.{name}()` aborts the transfer on failure; return a `Result`, \
                     provide a fallback, or suppress with a reason"
                ),
            ));
        } else if is_macro {
            out.push(input.finding(
                Rule::PanicSafety,
                tok.line,
                format!(
                    "`{name}!` panics in library code; prefer `debug_assert!` for internal \
                     invariants or an error return for input validation"
                ),
            ));
        }
    }
}

/// One `.lock()` acquisition with a named receiver.
struct LockSite<'t> {
    name: &'t str,
    line: u32,
    tok: usize,
    /// Token index just past the guard's live range.
    range_end: usize,
}

/// Rules 3 and 7, one scan over every `.lock()`.
///
/// Lock hygiene: a mutex guard held across a blocking operation (sleep,
/// join, channel send/recv, blocking I/O) serializes every other path
/// through that lock — in falcon-net that means probe sampling stalls
/// behind worker reconnects.
///
/// Lock order: a lock taken while another's guard is live is an `A → B`
/// edge; taking the same lock again is a self-deadlock (std mutexes are
/// not reentrant) and is reported here.
///
/// Heuristic: a `let g = ....lock();` binding keeps its guard alive until
/// the end of the enclosing block or an explicit `drop(g)`; a temporary
/// `....lock().method(...)` holds it to the end of the statement.
fn check_locks(input: &FileInput<'_>, out: &mut Vec<Finding>, edges: &mut Vec<LockEdge>) {
    let toks = input.tokens;
    let mut sites: Vec<LockSite<'_>> = Vec::new();
    for i in 0..toks.len() {
        if input.test_mask[i] {
            continue;
        }
        // Match `.lock()`.
        if !(toks[i].is_ident("lock")
            && prev_is(toks, i, ".")
            && next_is(toks, i, "(")
            && i + 2 < toks.len()
            && toks[i + 2].is_punct(")"))
        {
            continue;
        }
        // The binding is only the guard itself when `.lock()` (modulo
        // `.unwrap()`/`.expect(...)`) is the whole initializer; in
        // `let v = x.lock().drain(..).collect();` the guard is a temporary
        // that dies at the `;`.
        let guard = binding_name(toks, i).filter(|_| binds_guard_directly(toks, i + 2));
        let range_end = match guard {
            Some(name) => guard_block_end(toks, i, name),
            None => statement_end(toks, i),
        };
        for j in i + 3..range_end.min(toks.len()) {
            let t = &toks[j];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let blocking_method = BLOCKING_METHODS.contains(&t.text.as_str())
                && prev_is(toks, j, ".")
                && next_is(toks, j, "(");
            let blocking_call = BLOCKING_CALLS.contains(&t.text.as_str())
                && !prev_is(toks, j, ".")
                && next_is(toks, j, "(");
            if blocking_method || blocking_call {
                let held = guard.unwrap_or("<temporary>");
                out.push(input.finding(
                    Rule::LockAcrossBlocking,
                    t.line,
                    format!(
                        "blocking `{}` while mutex guard `{held}` (locked on line {}) is \
                         held; drop the guard first so other threads are not serialized \
                         behind the block",
                        t.text, toks[i].line
                    ),
                ));
            }
        }
        // Lock identity is the identifier directly before the `.`; complex
        // receivers (`get_pool().lock()`) have no stable name — skip.
        if let Some(recv) = i
            .checked_sub(2)
            .map(|r| &toks[r])
            .filter(|t| t.kind == TokenKind::Ident)
        {
            sites.push(LockSite {
                name: &recv.text,
                line: toks[i].line,
                tok: i,
                range_end,
            });
        }
    }
    for (ai, a) in sites.iter().enumerate() {
        for b in sites[ai + 1..].iter().take_while(|b| b.tok < a.range_end) {
            if b.name == a.name {
                out.push(input.finding(
                    Rule::LockOrder,
                    b.line,
                    format!(
                        "lock `{}` re-acquired while already held (first locked on \
                         line {}); std mutexes are not reentrant — this deadlocks",
                        b.name, a.line
                    ),
                ));
            } else {
                edges.push(LockEdge {
                    from: a.name.to_string(),
                    to: b.name.to_string(),
                    file: input.file.to_string(),
                    line: b.line,
                });
            }
        }
    }
}

/// Rule 4: float discipline. Exact `==`/`!=` against a float literal is
/// almost always a latent bug on a measured quantity; use a tolerance
/// helper. (Comparisons between two float *variables* are out of reach for
/// a lexer — this catches the literal form, which is the common one.)
fn check_float_cmp(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    for (i, tok) in input.tokens.iter().enumerate() {
        if input.test_mask[i] || tok.kind != TokenKind::Punct {
            continue;
        }
        if tok.text != "==" && tok.text != "!=" {
            continue;
        }
        let prev_float = i > 0 && input.tokens[i - 1].kind == TokenKind::Float;
        let next_float = input
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Float);
        if prev_float || next_float {
            out.push(input.finding(
                Rule::FloatCmp,
                tok.line,
                format!(
                    "exact `{}` against a float literal; compare with a tolerance \
                     (e.g. `(a - b).abs() < EPS`) or suppress with a reason",
                    tok.text
                ),
            ));
        }
    }
}

/// Canonical unit for a recognised identifier suffix. Spelling variants
/// collapse (`secs` ≡ `s`); distinct scales stay distinct (`ms` ≠ `s`):
/// mixing them without an explicit conversion is exactly the bug class.
fn canonical_unit(suffix: &str) -> Option<&'static str> {
    Some(match suffix {
        "s" | "sec" | "secs" => "s",
        "ms" | "millis" => "ms",
        "us" | "micros" => "us",
        "ns" | "nanos" => "ns",
        "bps" => "bps",
        "kbps" => "kbps",
        "mbps" => "mbps",
        "gbps" => "gbps",
        "bytes" | "byte" => "bytes",
        "kb" | "kib" => "kb",
        "mb" | "mib" => "mb",
        "gb" | "gib" => "gb",
        "hz" => "hz",
        "khz" => "khz",
        _ => return None,
    })
}

/// The canonical unit an identifier encodes via its `_suffix`, if any.
/// Requires an underscore so a variable named plain `s` or `mb` does not
/// count.
fn unit_of(ident: &str) -> Option<&'static str> {
    let (_, suffix) = ident.rsplit_once('_')?;
    canonical_unit(&suffix.to_ascii_lowercase())
}

/// Operators whose operands must agree dimensionally. `*` and `/` are
/// exempt: they are how units legitimately change.
fn is_unit_checked_op(op: &str) -> bool {
    matches!(
        op,
        "+" | "-" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "=" | "+=" | "-="
    )
}

/// Walk an identifier chain (`a.b_ms`, `m::T_S`) starting at `i`; returns
/// (last ident index, token index just past the chain).
fn chain_end(tokens: &[Token], mut i: usize) -> Option<(usize, usize)> {
    if tokens.get(i).map(|t| t.kind) != Some(TokenKind::Ident) {
        return None;
    }
    let mut last = i;
    loop {
        match (tokens.get(i + 1), tokens.get(i + 2)) {
            (Some(sep), Some(id))
                if (sep.is_punct(".") || sep.is_punct("::")) && id.kind == TokenKind::Ident =>
            {
                last = i + 2;
                i += 2;
            }
            _ => return Some((last, i + 1)),
        }
    }
}

/// Rule 5: unit-suffix dimensional analysis. Flags
/// additive/comparison/assignment operators whose two operands carry
/// different recognised unit suffixes — `at_s + backoff_ms` is a bug even
/// though both are `f64`s to the compiler.
fn check_unit_mismatch(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    let toks = input.tokens;
    for (i, t) in toks.iter().enumerate() {
        if input.test_mask[i] || t.kind != TokenKind::Punct || !is_unit_checked_op(&t.text) {
            continue;
        }
        // LHS: the identifier directly before the operator (the end of its
        // own chain).
        let Some(lhs) = i.checked_sub(1).map(|p| &toks[p]) else {
            continue;
        };
        if lhs.kind != TokenKind::Ident {
            continue;
        }
        let Some(lhs_unit) = unit_of(&lhs.text) else {
            continue;
        };
        // RHS: skip one unary minus, then an identifier chain. A chain
        // followed by `*` or `/` — possibly through call parens or an
        // `as` cast (`capacity_mbps() / 1000.0`, `n_bytes as f64 * 8.0`)
        // — is a conversion expression: the scale is being changed
        // deliberately, so stay quiet.
        let mut r = i + 1;
        if toks.get(r).is_some_and(|t| t.is_punct("-")) {
            r += 1;
        }
        let Some((rhs_last, mut after)) = chain_end(toks, r) else {
            continue;
        };
        loop {
            if toks.get(after).is_some_and(|t| t.is_punct("(")) {
                let Some(close) = matching_delim(toks, after, "(", ")") else {
                    break;
                };
                after = close + 1;
            } else if toks.get(after).is_some_and(|t| t.is_ident("as")) {
                match chain_end(toks, after + 1) {
                    Some((_, past_ty)) => after = past_ty,
                    None => break,
                }
            } else {
                break;
            }
        }
        if toks
            .get(after)
            .is_some_and(|t| t.is_punct("*") || t.is_punct("/"))
        {
            continue;
        }
        let rhs = &toks[rhs_last];
        let Some(rhs_unit) = unit_of(&rhs.text) else {
            continue;
        };
        if lhs_unit != rhs_unit {
            out.push(input.finding(
                Rule::UnitMismatch,
                t.line,
                format!(
                    "`{}` [{}] {} `{}` [{}] mixes incompatible unit suffixes; convert \
                     explicitly (`* 1e3`, `/ 8.0`, ...) or rename one side",
                    lhs.text, lhs_unit, t.text, rhs.text, rhs_unit
                ),
            ));
        }
    }
}

/// Is this identifier a float-time variable for accumulation purposes?
fn is_time_var(ident: &str) -> bool {
    if TIME_NAMES.contains(&ident) {
        return true;
    }
    matches!(unit_of(ident), Some("s" | "ms" | "us" | "ns"))
}

/// Rule 6: float-time-accumulation. `t += dt` in a loop compounds rounding
/// error across iterations — the exact drift class the DES rewrite removed
/// (a tick grid must be `start + i*dt`, an event time absolute). Flagged
/// everywhere except the blessed integration modules.
fn check_float_time_accum(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    if BLESSED_TIME_ACCUM.contains(&input.file) {
        return;
    }
    let toks = input.tokens;
    let mut reported: BTreeSet<u32> = BTreeSet::new();
    for (start, end) in loop_bodies(toks) {
        for i in start..end.min(toks.len()) {
            if input.test_mask[i] || toks[i].kind != TokenKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            if !is_time_var(name) {
                continue;
            }
            // `t += ...` or `t = t + ...`.
            let compound = next_is(toks, i, "+=");
            let expanded = next_is(toks, i, "=")
                && toks.get(i + 2).is_some_and(|t| t.is_ident(name))
                && toks.get(i + 3).is_some_and(|t| t.is_punct("+"));
            if (compound || expanded) && reported.insert(toks[i].line) {
                out.push(input.finding(
                    Rule::FloatTimeAccum,
                    toks[i].line,
                    format!(
                        "`{name}` accumulates float time incrementally in a loop; \
                         rounding drift compounds per iteration — derive the grid as \
                         `start + i*dt` or schedule absolute event times (DESIGN.md §4)"
                    ),
                ));
            }
        }
    }
}

/// Rule 7, workspace side: any cycle in the graph of every file's
/// [`LockEdge`]s is a potential deadlock. Each cycle is reported once, at
/// the first witness of the edge that closes it.
pub(crate) fn check_lock_order(edges: &[LockEdge]) -> Vec<Finding> {
    let mut first: BTreeMap<(&str, &str), &LockEdge> = BTreeMap::new();
    for e in edges {
        first.entry((&e.from, &e.to)).or_insert(e);
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &(a, b) in first.keys() {
        adj.entry(a).or_default().push(b);
    }
    // For each edge A → B, a path B ⇝ A closes a cycle. Dedupe by the
    // cycle's canonical node rotation.
    let mut out = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<&str>> = BTreeSet::new();
    for (&(a, b), w) in &first {
        let Some(path_back) = bfs_path(&adj, b, a) else {
            continue;
        };
        // Cycle nodes: a → b (→ ... → a), without the closing repeat of a.
        let mut cycle: Vec<&str> = vec![a];
        cycle.extend(&path_back[..path_back.len() - 1]);
        let min_pos = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| **s)
            .map_or(0, |(i, _)| i);
        let mut canon = cycle.clone();
        canon.rotate_left(min_pos);
        if !seen_cycles.insert(canon) {
            continue;
        }
        cycle.push(a);
        out.push(Finding {
            rule: Rule::LockOrder,
            file: w.file.clone(),
            line: w.line,
            message: format!(
                "lock-order cycle {}: `{a}` is held while `{b}` is acquired here, \
                 but another path acquires them in the reverse order — pick one global \
                 order (potential deadlock)",
                cycle.join(" → ")
            ),
        });
    }
    out
}

/// BFS path over the lock graph, returned as the node list from `from` to
/// `to` inclusive. `to` must be reached via at least one edge, so calling
/// with `from == to` finds a genuine cycle, not the empty path.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&'a str, &'a str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(node) = queue.pop_front() {
        for &next in adj.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            if next == to {
                let mut path = vec![next, node];
                let mut cur = node;
                while let Some(&p) = prev.get(cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if visited.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Previous non-trivial token is the punct `p`.
fn prev_is(toks: &[Token], i: usize, p: &str) -> bool {
    i > 0 && toks[i - 1].is_punct(p)
}

/// Next token is the punct `p`.
fn next_is(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(p))
}

/// True when the `.lock()` call whose closing paren sits at `close` is the
/// entire initializer expression, optionally chained through `.unwrap()` or
/// `.expect(...)` — i.e. the `let` binds the guard itself. Any other
/// trailing method call consumes a temporary guard instead.
fn binds_guard_directly(toks: &[Token], close: usize) -> bool {
    let mut j = close + 1;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct(";") => return true,
            Some(t) if t.is_punct(".") => {
                let chains_guard = toks
                    .get(j + 1)
                    .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"));
                if !chains_guard || !toks.get(j + 2).is_some_and(|t| t.is_punct("(")) {
                    return false;
                }
                match matching_delim(toks, j + 2, "(", ")") {
                    Some(k) => j = k + 1,
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

/// If the statement containing the `.lock()` at `i` is a `let` binding,
/// return the bound identifier. Scans backwards to the statement start.
fn binding_name(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            // `let [mut] name = ...`
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            return toks
                .get(k)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str());
        }
    }
    None
}

/// Token index just past the end of the guard's live range for a `let`
/// binding at `.lock()` token `i`: the close of the enclosing block, or an
/// explicit `drop(name)`, whichever comes first.
fn guard_block_end(toks: &[Token], i: usize, name: &str) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0
            && t.is_ident("drop")
            && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(j + 2).is_some_and(|t| t.is_ident(name))
        {
            return j;
        }
    }
    toks.len()
}

/// Token index just past the end of the current statement (next `;` at the
/// current nesting depth).
fn statement_end(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_punct(";") && depth <= 0 {
            return j;
        }
    }
    toks.len()
}
