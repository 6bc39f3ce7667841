//! The rule catalogue and per-line scanners.
//!
//! Every rule scans the *masked* code produced by [`crate::lexer`] — string
//! and comment contents are already blanked, so a pattern hit is a real code
//! token. Scanners are plain substring searches with identifier-boundary
//! checks; no regex engine is needed (or available — this crate is
//! dependency-free on purpose).

/// A single invariant the workspace enforces.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case identifier, used in pragmas and `lint.toml`.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// What to do instead, shown with every violation.
    pub hint: &'static str,
}

/// The enforced rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-panic-lib",
        summary: "library code must not contain unwrap/expect/panic!/todo!/unimplemented!",
        hint: "return the crate's error type (e.g. `?` + typed error) or, for a structural \
               invariant, add `// lint: allow(no-panic-lib) — <why it cannot fire>`",
    },
    Rule {
        id: "no-float-eq",
        summary: "`==`/`!=` against a float literal hides NaN and rounding bugs",
        hint: "compare with an explicit tolerance (`(a - b).abs() <= eps`), a range check, or \
               restructure so the branch uses `<`/`>`",
    },
    Rule {
        id: "no-raw-stdout",
        summary: "println!/eprintln!/print!/eprint!/dbg! bypass the rll-obs sinks",
        hint: "emit through a `Recorder` (events/metrics) or write to an injected \
               `std::io::Write` handle",
    },
    Rule {
        id: "no-wallclock",
        summary: "std::time::Instant/SystemTime outside rll-obs breaks seeded-run comparability",
        hint: "use `rll_obs::Stopwatch` (or take timings from a Recorder span) so wall-clock \
               reads stay behind the observability boundary",
    },
    Rule {
        id: "no-unseeded-rng",
        summary: "ambient entropy (thread_rng/from_entropy/OsRng) breaks seed-threaded training",
        hint: "thread a seeded `Rng64` (or a child seed derived from it) through the call path",
    },
    Rule {
        id: "no-nonatomic-write",
        summary: "File::create/fs::write publish a file non-atomically; a crash mid-write leaves \
                  a torn artifact that resume/reload would then trust",
        hint: "route snapshot and checkpoint writes through `rll_core::snapshot::atomic_write` \
               (same-dir temp + fsync + rename), or justify with a pragma when the file is \
               ephemeral coordination data",
    },
    Rule {
        id: "no-unordered-reduce",
        summary: "accumulating into a lock (`.lock()` + `+=`/`.push(`) reduces in completion \
                  order, and `mul_add(` contracts `a*b + c` with a single rounding — both \
                  change float reduction bits",
        hint: "collect per-shard partials with `rll_par::map_ordered`/`try_map_ordered` and \
               fold them in shard-index order after the join; write `a * b + c` out so the \
               tiled kernels and the test oracle round identically (the kernel byte contract)",
    },
    Rule {
        id: "no-untimed-handler",
        summary: "an HTTP handler (`fn handle_*`) with no latency instrumentation is a blind \
                  spot: its route never shows up in /metrics or traces",
        hint: "open the handler with \
               `let _latency = ctx.handler_latency(\"serve.handler.<route>\");` (or \
               record through `.observe(`/`.span(`), or justify with \
               `// lint: allow(no-untimed-handler) — <why this route stays untimed>`",
    },
];

/// Structural rules: whole-workspace analyses over the token/item layer
/// ([`crate::syntax`]) rather than per-line scans. They share the pragma and
/// scoping machinery with [`RULES`] but are driven by [`crate::lockgraph`]
/// and [`crate::taint`], not by [`scan`].
pub const STRUCTURAL_RULES: &[Rule] = &[
    Rule {
        id: "lock-order-cycle",
        summary: "lock acquisitions must follow one global rank order; a cycle (or a \
                  rank-inverted edge) in the workspace lock graph is a latent deadlock",
        hint: "acquire locks in strictly increasing declared-rank order (see the ladder in \
               CONTRIBUTING.md); the runtime witness aborts debug builds on the same inversion",
    },
    Rule {
        id: "no-lock-held-io",
        summary: "blocking file/socket I/O while a lock guard is live stalls every thread \
                  queued on that lock",
        hint: "do the I/O first (load, serialize), then take the lock only for the in-memory \
               swap — the `POST /reload` path is the canonical shape",
    },
    Rule {
        id: "no-iter-order-sink",
        summary: "HashMap/HashSet iteration order is per-process random; letting it reach a \
                  serialized artifact breaks byte-identical checkpoints and traces",
        hint: "sort the entries (or use BTreeMap/BTreeSet) before anything that feeds \
               `.rllckpt`/`.rllstate`/trace serialization",
    },
];

/// Meta-rule id reported when a suppression pragma omits its justification.
pub const RULE_SUPPRESSION_JUSTIFICATION: &str = "suppression-needs-justification";
/// Meta-rule id reported when a pragma names a rule that does not exist.
pub const RULE_UNKNOWN: &str = "unknown-lint-rule";
/// Meta-rule id reported when a justified pragma suppresses nothing. Not a
/// known (allowable) rule on purpose: the fix for a dead pragma is deleting
/// it, not suppressing the suppression.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// True if `id` names a scanning or structural rule (not a meta-rule).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id) || STRUCTURAL_RULES.iter().any(|r| r.id == id)
}

/// A single rule hit: 0-based line, 0-based column (chars), and the matched
/// token for the report snippet.
#[derive(Debug, Clone)]
pub struct Hit {
    pub line: usize,
    pub col: usize,
    pub token: String,
}

/// Runs one rule's scanner over the masked code.
pub fn scan(rule_id: &str, code: &[String]) -> Vec<Hit> {
    match rule_id {
        "no-panic-lib" => scan_panic(code),
        "no-float-eq" => scan_float_eq(code),
        "no-raw-stdout" => scan_tokens(
            code,
            &["println!", "eprintln!", "print!", "eprint!", "dbg!"],
        ),
        "no-wallclock" => scan_tokens(code, &["Instant", "SystemTime"]),
        "no-unseeded-rng" => scan_tokens(
            code,
            &["thread_rng", "from_entropy", "OsRng", "StdRng::from_os_rng"],
        ),
        "no-nonatomic-write" => scan_tokens(code, &["File::create(", "fs::write("]),
        "no-unordered-reduce" => scan_unordered_reduce(code),
        "no-untimed-handler" => scan_untimed_handler(code),
        _ => Vec::new(),
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `needle` occurrences that start at an identifier boundary. The
/// needle itself may end in `!`/`(`/`)` which are their own boundaries.
fn find_bounded(line: &str, needle: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let pat: Vec<char> = needle.chars().collect();
    let mut out = Vec::new();
    if pat.is_empty() || chars.len() < pat.len() {
        return out;
    }
    for start in 0..=chars.len() - pat.len() {
        if chars[start..start + pat.len()] != pat[..] {
            continue;
        }
        let first = pat[0];
        if is_ident_char(first) && start > 0 && is_ident_char(chars[start - 1]) {
            continue;
        }
        let last = *pat.last().unwrap_or(&' ');
        if is_ident_char(last) {
            if let Some(&after) = chars.get(start + pat.len()) {
                if is_ident_char(after) {
                    continue;
                }
            }
        }
        out.push(start);
    }
    out
}

fn scan_tokens(code: &[String], needles: &[&str]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (li, line) in code.iter().enumerate() {
        for needle in needles {
            for col in find_bounded(line, needle) {
                hits.push(Hit {
                    line: li,
                    col,
                    token: (*needle).to_string(),
                });
            }
        }
    }
    hits.sort_by_key(|h| (h.line, h.col));
    hits
}

fn scan_panic(code: &[String]) -> Vec<Hit> {
    let mut hits = scan_tokens(code, &["panic!", "todo!", "unimplemented!"]);
    for (li, line) in code.iter().enumerate() {
        for col in find_bounded(line, ".unwrap()") {
            hits.push(Hit {
                line: li,
                col,
                token: ".unwrap()".into(),
            });
        }
        for col in find_bounded(line, ".expect(") {
            hits.push(Hit {
                line: li,
                col,
                token: ".expect(".into(),
            });
        }
    }
    hits.sort_by_key(|h| (h.line, h.col));
    hits
}

/// Flags lines that take a lock and mutate an accumulator on the same line —
/// the signature of threads racing to fold partial results in whatever order
/// they finish. Float addition is not associative, so a completion-order
/// reduction gives a different bit pattern on every run; pushing results into
/// a shared `Vec` has the same problem for anything order-sensitive.
///
/// Line-granular on purpose: a `.lock()` that only *reads* (no `+=`, no
/// `.push(`) is fine, and multi-line lock-then-accumulate shapes go through a
/// named guard variable that code review can see. The deterministic
/// alternative — `rll_par`'s ordered map + shard-index-order fold — needs no
/// lock at all.
///
/// Also flags `.mul_add(` anywhere in scope: a fused multiply-add rounds
/// `a*b + c` **once**, where the plain expression rounds twice. The tiled
/// kernels in `rll-tensor` stay byte-identical to the test oracle precisely
/// because both spell out `a * b + c` (rustc never auto-contracts); one
/// `mul_add` in an accumulation chain silently breaks the tiled-kernels vs
/// test-oracle contract while looking like an innocent speedup.
fn scan_unordered_reduce(code: &[String]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (li, line) in code.iter().enumerate() {
        for col in find_bounded(line, "mul_add(") {
            hits.push(Hit {
                line: li,
                col,
                token: "mul_add(".into(),
            });
        }
        let locks = find_bounded(line, ".lock()");
        if locks.is_empty() {
            continue;
        }
        let accumulates = find_bounded(line, "+=")
            .into_iter()
            .chain(find_bounded(line, ".push("))
            .next()
            .is_some();
        if !accumulates {
            continue;
        }
        for col in locks {
            hits.push(Hit {
                line: li,
                col,
                token: ".lock()".into(),
            });
        }
    }
    hits.sort_by_key(|h| (h.line, h.col));
    hits
}

/// Finds a `fn handle_<route>` declaration on the line, returning the column
/// of `fn` and the handler's name. Not [`find_bounded`]: the needle ends in
/// `_`, which is an identifier char, so the route name that follows would
/// fail the trailing-boundary check.
fn find_handler_decl(line: &str) -> Option<(usize, String)> {
    const NEEDLE: &str = "fn handle_";
    let chars: Vec<char> = line.chars().collect();
    let pat: Vec<char> = NEEDLE.chars().collect();
    for start in 0..chars.len().saturating_sub(pat.len()) {
        if chars[start..start + pat.len()] != pat[..] {
            continue;
        }
        if start > 0 && is_ident_char(chars[start - 1]) {
            continue; // e.g. `pub_fn handle_…` lookalike identifiers
        }
        let name: String = chars[start + 3..]
            .iter()
            .take_while(|c| is_ident_char(**c))
            .collect();
        return Some((start, name));
    }
    None
}

/// Flags `fn handle_*` functions whose body never touches a latency
/// instrument. A handler that records nothing is invisible in `/metrics`
/// and in request traces — exactly the route you cannot debug when it turns
/// slow.
///
/// The "body" is line-granular like every other scanner: everything from the
/// declaration down to the next line containing a `fn` token (or EOF). Any
/// occurrence of `handler_latency`/`latency`, `.observe(`, or `.span(` in
/// that region counts as instrumentation; the common idiom is an RAII guard
/// on the first line (`let _latency = ctx.handler_latency("route");`), which
/// also covers early returns.
fn scan_untimed_handler(code: &[String]) -> Vec<Hit> {
    const INSTRUMENTS: &[&str] = &["latency", ".observe(", ".span("];
    let mut hits = Vec::new();
    let mut li = 0usize;
    while li < code.len() {
        let Some((col, name)) = find_handler_decl(&code[li]) else {
            li += 1;
            continue;
        };
        let mut end = li + 1;
        while end < code.len() && find_bounded(&code[end], "fn").is_empty() {
            end += 1;
        }
        let timed = code[li..end]
            .iter()
            .any(|line| INSTRUMENTS.iter().any(|needle| line.contains(needle)));
        if !timed {
            hits.push(Hit {
                line: li,
                col,
                token: format!("fn {name}"),
            });
        }
        li = end;
    }
    hits
}

/// Flags `==`/`!=` where either operand token is a floating-point literal or
/// a float special-value path (`f64::NAN`, `f32::INFINITY`, …).
///
/// This is deliberately literal-based: without type inference a textual
/// linter cannot see through variables, so `a == b` on two floats passes.
/// The dynamic companion is `rll_tensor::debug_assert_finite!`, and direct
/// float comparisons against *literals* — the overwhelmingly common shape of
/// this bug — are all caught here.
fn scan_float_eq(code: &[String]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (li, line) in code.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        while i + 1 < chars.len() {
            let two: String = chars[i..i + 2].iter().collect();
            if two != "==" && two != "!=" {
                i += 1;
                continue;
            }
            // Not part of `<=`, `>=`, `=>`, `===`-like runs.
            if i > 0 && matches!(chars[i - 1], '<' | '>' | '=' | '!') {
                i += 2;
                continue;
            }
            if chars.get(i + 2) == Some(&'=') {
                i += 3;
                continue;
            }
            let left = token_before(&chars, i);
            let right = token_after(&chars, i + 2);
            if is_float_literal(&left) || is_float_literal(&right) {
                hits.push(Hit {
                    line: li,
                    col: i,
                    token: format!("{left} {two} {right}"),
                });
            }
            i += 2;
        }
    }
    hits
}

fn token_before(chars: &[char], op_start: usize) -> String {
    let mut j = op_start;
    while j > 0 && chars[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    loop {
        if j > 0 && (is_ident_char(chars[j - 1]) || matches!(chars[j - 1], '.' | ':')) {
            j -= 1;
        } else if j > 1
            && j < end
            && matches!(chars[j - 1], '+' | '-')
            && matches!(chars[j - 2], 'e' | 'E')
        {
            // Exponent sign inside a literal like `1.5e-3`.
            j -= 1;
        } else {
            break;
        }
    }
    chars[j..end].iter().collect()
}

fn token_after(chars: &[char], mut j: usize) -> String {
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    if chars.get(j) == Some(&'-') {
        j += 1; // negative literal
    }
    let start = j;
    while j < chars.len() {
        let c = chars[j];
        if is_ident_char(c) || matches!(c, '.' | ':') {
            j += 1;
        } else if matches!(c, '+' | '-') && j > start && matches!(chars[j - 1], 'e' | 'E') {
            // Exponent sign inside a literal like `1.5e-3`.
            j += 1;
        } else {
            break;
        }
    }
    chars[start..j].iter().collect()
}

/// `1.0`, `0.`, `.5`, `1e-3`, `2.5e10`, `1_000.0`, `1.0f64`, `f64::NAN`,
/// `f32::INFINITY`, `std::f64::consts::PI`, …
fn is_float_literal(token: &str) -> bool {
    let token = token.trim_end_matches("f64").trim_end_matches("f32");
    if token.is_empty() {
        return false;
    }
    // Special-value and constant paths.
    for suffix in [
        "::NAN",
        "::INFINITY",
        "::NEG_INFINITY",
        "::EPSILON",
        "::MIN_POSITIVE",
    ] {
        if token.ends_with(suffix) && (token.contains("f64") || token.contains("f32")) {
            return true;
        }
    }
    if token.contains("::consts::") {
        return true;
    }
    // Numeric literal with a decimal point or exponent.
    let body: String = token.chars().filter(|&c| c != '_').collect();
    let mut has_digit = false;
    let mut has_dot = false;
    let mut has_exp = false;
    let mut prev = ' ';
    for c in body.chars() {
        match c {
            '0'..='9' => has_digit = true,
            '.' => {
                if has_dot || has_exp {
                    return false;
                }
                has_dot = true;
            }
            'e' | 'E' => {
                if !has_digit || has_exp {
                    return false;
                }
                has_exp = true;
            }
            '+' | '-' => {
                if prev != 'e' && prev != 'E' {
                    return false;
                }
            }
            _ => return false,
        }
        prev = c;
    }
    has_digit && (has_dot || has_exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_line(s: &str) -> Vec<String> {
        vec![s.to_string()]
    }

    #[test]
    fn float_literal_shapes() {
        for t in ["1.0", "0.", ".5", "1e-3", "2.5E10", "1_000.0", "1.0f64"] {
            assert!(is_float_literal(t), "{t}");
        }
        for t in ["1", "100", "0x1f", "name", "f64", "len", ""] {
            assert!(!is_float_literal(t), "{t}");
        }
        assert!(is_float_literal("f64::NAN"));
        assert!(is_float_literal("std::f64::consts::PI"));
    }

    #[test]
    fn float_eq_scanner() {
        assert_eq!(scan_float_eq(&one_line("if a == 0.0 {")).len(), 1);
        assert_eq!(scan_float_eq(&one_line("if 1.5 != b {")).len(), 1);
        assert_eq!(scan_float_eq(&one_line("if a == b {")).len(), 0);
        assert_eq!(scan_float_eq(&one_line("if n == 0 {")).len(), 0);
        assert_eq!(scan_float_eq(&one_line("if a <= 0.0 {")).len(), 0);
        assert_eq!(scan_float_eq(&one_line("let f = |x| x == 0.5;")).len(), 1);
        assert_eq!(scan_float_eq(&one_line("x == f64::NAN")).len(), 1);
    }

    #[test]
    fn unordered_reduce_scanner() {
        // Lock + accumulate on one line: the completion-order reduction smell.
        assert_eq!(
            scan_unordered_reduce(&one_line("*total.lock() += shard_loss;")).len(),
            1
        );
        assert_eq!(
            scan_unordered_reduce(&one_line("results.lock().push(fold_score);")).len(),
            1
        );
        // A read-only lock is fine.
        assert_eq!(
            scan_unordered_reduce(&one_line("let n = counts.lock().len();")).len(),
            0
        );
        // Accumulation without a lock is the caller's business.
        assert_eq!(scan_unordered_reduce(&one_line("total += part;")).len(), 0);
        // `.unlock()`-style lookalikes don't match the bounded needle.
        assert_eq!(
            scan_unordered_reduce(&one_line("v.try_lock() += 1;")).len(),
            0
        );
    }

    #[test]
    fn unordered_reduce_flags_mul_add() {
        // FMA contracts `a*b + c` with one rounding, so scalar-vs-tiled
        // byte identity breaks: flagged wherever it appears, lock or not.
        let hits = scan_unordered_reduce(&one_line("acc = x.mul_add(y, acc);"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].token, "mul_add(");
        // The fully-qualified form contracts just the same.
        assert_eq!(
            scan_unordered_reduce(&one_line("*o += f64::mul_add(a, b, c);")).len(),
            1
        );
        // Lookalike identifiers don't match the bounded needle.
        assert_eq!(
            scan_unordered_reduce(&one_line("let z = v.fancy_mul_add(1);")).len(),
            0
        );
        assert_eq!(
            scan_unordered_reduce(&one_line("acc += a * b; // write it out")).len(),
            0
        );
    }

    #[test]
    fn nonatomic_write_scanner() {
        let hits = |s: &str| scan("no-nonatomic-write", &one_line(s)).len();
        assert_eq!(hits("let f = File::create(&path)?;"), 1);
        assert_eq!(hits("std::fs::write(path, bytes)?;"), 1);
        assert_eq!(hits("fs::write(&tmp, contents)"), 1);
        // The sanctioned writer and read-side APIs stay clean.
        assert_eq!(hits("atomic_write(&path, &bytes)?;"), 0);
        assert_eq!(hits("fs::read_to_string(path)?"), 0);
        assert_eq!(hits("MyFile::create(x)"), 0);
    }

    #[test]
    fn untimed_handler_scanner() {
        let lines = |src: &[&str]| src.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A handler with the RAII latency guard passes.
        let timed = lines(&[
            "fn handle_embed(ctx: &Ctx) -> Response {",
            "    let _latency = ctx.handler_latency(\"embed\");",
            "    respond(ctx)",
            "}",
        ]);
        assert!(scan_untimed_handler(&timed).is_empty());
        // `.observe(` and `.span(` also count as instrumentation.
        let observed = lines(&[
            "fn handle_score(ctx: &Ctx) -> Response {",
            "    ctx.metrics.histogram(\"h\", &b).observe(secs);",
            "}",
        ]);
        assert!(scan_untimed_handler(&observed).is_empty());
        // A bare handler is flagged at its declaration line.
        let bare = lines(&[
            "fn handle_healthz(ctx: &Ctx) -> Response {",
            "    Response::ok()",
            "}",
        ]);
        let hits = scan_untimed_handler(&bare);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 0);
        assert_eq!(hits[0].token, "fn handle_healthz");
        // The body region ends at the next `fn`: instrumentation in a later
        // function must not excuse an earlier bare handler.
        let two = lines(&[
            "fn handle_reload(ctx: &Ctx) -> Response {",
            "    Response::ok()",
            "}",
            "fn handle_metrics(ctx: &Ctx) -> Response {",
            "    let _latency = ctx.handler_latency(\"metrics\");",
            "}",
        ]);
        let hits = scan_untimed_handler(&two);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].token, "fn handle_reload");
        // Non-handler functions are out of scope, as are lookalike names
        // without the `handle_` prefix.
        let other = lines(&["fn handler_latency(&self) -> HandlerLatency {", "}"]);
        assert!(scan_untimed_handler(&other).is_empty());
    }

    #[test]
    fn bounded_token_search() {
        assert_eq!(find_bounded("thread_rng()", "thread_rng").len(), 1);
        assert_eq!(find_bounded("my_thread_rng()", "thread_rng").len(), 0);
        assert_eq!(find_bounded("x.unwrap_or(0)", ".unwrap()").len(), 0);
        assert_eq!(find_bounded("x.unwrap()", ".unwrap()").len(), 1);
        assert_eq!(find_bounded("x.expect_err(e)", ".expect(").len(), 0);
        assert_eq!(find_bounded("Instant::now()", "Instant").len(), 1);
        assert_eq!(find_bounded("MyInstant::now()", "Instant").len(), 0);
    }
}
