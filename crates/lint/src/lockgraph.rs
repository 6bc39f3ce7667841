//! Workspace lock-acquisition-order analysis.
//!
//! Builds the workspace **lock graph** over every rank-annotated lock
//! (`OrderedMutex`/`OrderedRwLock` from `rll-par`) and checks two
//! structural rules the line scanners cannot see:
//!
//! - **lock-order-cycle** — an edge `L → M` is recorded whenever code can
//!   acquire `M` while a guard of `L` is live (directly, or through a
//!   resolvable call). A cycle in that graph is a latent deadlock and is
//!   reported with a concrete witness path; an edge that contradicts the
//!   declared ranks (`rank(L) >= rank(M)`) is reported even without a
//!   closing edge, because the runtime witness would abort on it.
//! - **no-lock-held-io** — blocking file/socket I/O inside a guard region
//!   stalls every thread queued on that lock (the `POST /reload` path is the
//!   motivating case: checkpoint loading must happen *before* the model
//!   write lock, never under it).
//!
//! ## Model
//!
//! Lock identity is the **declaration name**: the string literal in
//! `OrderedMutex::new("name", rank, …)`, which by convention matches the
//! field the lock is stored in, so an acquisition `x.queue.lock()` resolves
//! to the declaration named `queue`. Guard regions are token ranges:
//!
//! - `let g = x.lock();` — to the end of the enclosing block, or to an
//!   explicit `drop(g)`;
//! - a temporary guard (`x.cache.lock().clear()`) — to the end of the
//!   statement; under an `if let`/`while let`/`match` head, through the end
//!   of the governed block (scrutinee temporaries live that long);
//! - `Condvar::wait` hand-offs are *not* modelled as releases — the region
//!   stays open, which is conservative (it can add edges, never drop them).
//!
//! Calls resolve by bare name to every same-named free `fn` in the analyzed
//! file set (a union over candidates — no type resolution). Dot-method and
//! path-qualified calls are deliberately *not* resolved (`.load(` on an
//! `AtomicBool` must not alias `Checkpoint::load`, `Stopwatch::start` must
//! not alias `Server::start`); the cost is that acquisitions hidden behind
//! methods are invisible, so keep lock acquisitions either inline or behind
//! free-function calls, and known blocking entry points (`Checkpoint::load`)
//! in the direct I/O token list (see CONTRIBUTING.md).

use crate::syntax::{self, FnItem, Tok};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One declared lock: name, rank, and where it is constructed.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Name literal from the constructor (matches the storing field).
    pub name: String,
    /// Declared rank; acquisitions must climb strictly.
    pub rank: u32,
    /// Workspace-relative file of the declaration.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// One acquisition-order edge: while `from` is held, `to` is acquired at
/// `file:line` (1-based), possibly through the call named in `via`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// 0-based column of the witness token.
    pub col: usize,
    /// `"direct"` or the name of the call that transitively acquires `to`.
    pub via: String,
}

/// The workspace lock graph, as emitted to `results/lock_graph.json`.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    pub locks: Vec<LockDecl>,
    pub edges: Vec<LockEdge>,
    /// Each cycle as the list of lock names along it (first repeated last).
    pub cycles: Vec<Vec<String>>,
}

/// A structural finding, positioned like a scanner [`crate::rules::Hit`]
/// (0-based line/col) but carrying its own rule id and hint.
#[derive(Debug, Clone)]
pub struct StructHit {
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub rule: String,
    pub snippet: String,
    pub hint: String,
}

/// One analyzed source file: raw + masked text plus the recovered structure.
pub struct AnalyzedFile {
    pub path: String,
    pub raw: Vec<String>,
    pub code: Vec<String>,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnItem>,
}

impl AnalyzedFile {
    /// Lexes and tokenizes one file for the structural passes.
    pub fn new(path: &str, raw_source: &str, lexed_code: &[String]) -> Self {
        let toks = syntax::tokenize(lexed_code);
        let fns = syntax::fn_items(&toks);
        AnalyzedFile {
            path: path.to_string(),
            raw: raw_source.lines().map(str::to_string).collect(),
            code: lexed_code.to_vec(),
            toks,
            fns,
        }
    }
}

/// An acquisition site inside one file's token stream.
#[derive(Debug, Clone)]
struct Acquire {
    /// Declared lock name.
    lock: String,
    /// Token index of the receiver word.
    recv_tok: usize,
    /// `lock`, `read`, or `write` — for the report snippet.
    method: String,
    /// Token range `[start, end]` (inclusive) the guard is live over.
    region: (usize, usize),
}

/// Blocking-I/O tokens scanned for inside guard regions. All are
/// line-maskable substrings with an ident boundary on the left.
const IO_TOKENS: &[&str] = &[
    "File::create(",
    "File::open(",
    "fs::write(",
    "fs::read(",
    "fs::read_to_string(",
    "fs::copy(",
    "fs::rename(",
    "fs::remove_file(",
    "atomic_write(",
    "Checkpoint::load(",
    "TcpStream::connect(",
    "TcpListener::bind(",
    ".accept(",
    ".read_to_end(",
    ".read_to_string(",
];

const ACQ_METHODS: &[&str] = &["lock", "read", "write"];

/// Runs the lock analysis over the analyzed set. `in_scope(rule, path)`
/// gates which files contribute edges/findings per rule (declarations and
/// the call graph always span the whole set).
pub fn analyze(
    files: &[AnalyzedFile],
    in_scope: &dyn Fn(&str, &str) -> bool,
) -> (LockGraph, Vec<StructHit>) {
    let (decls, decl_hits) = collect_decls(files);
    let ranks: BTreeMap<&str, u32> = decls.iter().map(|d| (d.name.as_str(), d.rank)).collect();

    // Per-file acquisition sites (for files where either lock rule applies —
    // the graph and the io check share the region machinery).
    let mut acquires: Vec<Vec<Acquire>> = Vec::with_capacity(files.len());
    for f in files {
        let relevant =
            in_scope("lock-order-cycle", &f.path) || in_scope("no-lock-held-io", &f.path);
        if relevant {
            acquires.push(find_acquires(f, &ranks));
        } else {
            acquires.push(Vec::new());
        }
    }

    // Transitive acquisition summaries over the name-resolved call graph.
    let summaries = transitive_acquires(files, &acquires);
    let io_summaries = transitive_io(files);

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut hits: Vec<StructHit> = decl_hits
        .into_iter()
        .filter(|h| in_scope("lock-order-cycle", &h.file))
        .collect();

    for (fi, f) in files.iter().enumerate() {
        let cycle_scope = in_scope("lock-order-cycle", &f.path);
        let io_scope = in_scope("no-lock-held-io", &f.path);
        for acq in &acquires[fi] {
            let (start, end) = acq.region;
            // Direct nested acquisitions inside the region.
            if cycle_scope {
                for inner in &acquires[fi] {
                    let t = inner.recv_tok;
                    if t > acq.recv_tok && t >= start && t <= end {
                        edges.push(LockEdge {
                            from: acq.lock.clone(),
                            to: inner.lock.clone(),
                            file: f.path.clone(),
                            line: f.toks[t].line + 1,
                            col: f.toks[t].col,
                            via: "direct".into(),
                        });
                    }
                }
            }
            // Calls inside the region: transitive acquisitions and I/O.
            let call_from = acq.recv_tok + 1;
            for i in call_from..=end.min(f.toks.len().saturating_sub(1)) {
                if !syntax::is_resolvable_call(&f.toks, i) {
                    continue;
                }
                let callee = f.toks[i].text.as_str();
                if cycle_scope {
                    if let Some(acquired) = summaries.get(callee) {
                        for lock in acquired {
                            edges.push(LockEdge {
                                from: acq.lock.clone(),
                                to: lock.clone(),
                                file: f.path.clone(),
                                line: f.toks[i].line + 1,
                                col: f.toks[i].col,
                                via: callee.to_string(),
                            });
                        }
                    }
                }
                if io_scope {
                    if let Some(io_site) = io_summaries.get(callee) {
                        hits.push(StructHit {
                            file: f.path.clone(),
                            line: f.toks[i].line,
                            col: f.toks[i].col,
                            rule: "no-lock-held-io".into(),
                            snippet: format!("{callee}(…) while `{}` is held", acq.lock),
                            hint: format!(
                                "`{callee}` performs blocking I/O ({io_site}); hoist it out of \
                                 the `{}` guard region — load/serialize first, then take the \
                                 lock for the in-memory swap",
                                acq.lock
                            ),
                        });
                    }
                }
            }
            // Direct I/O tokens inside the region (line-granular scan over
            // the masked lines the region covers).
            if io_scope {
                for hit in direct_io_in_region(f, acq) {
                    hits.push(hit);
                }
            }
        }
    }

    // Dedupe edges by (from, to, via), keeping the first witness site.
    let mut seen_edges: BTreeSet<(String, String, String)> = BTreeSet::new();
    edges.retain(|e| seen_edges.insert((e.from.clone(), e.to.clone(), e.via.clone())));
    edges.sort_by(|a, b| (&a.from, &a.to, &a.file, a.line).cmp(&(&b.from, &b.to, &b.file, b.line)));

    let cycles = find_cycles(&edges);

    // Report each cycle once, anchored at its first witness edge.
    let mut cyclic_edges: BTreeSet<(String, String)> = BTreeSet::new();
    for cycle in &cycles {
        for pair in cycle.windows(2) {
            cyclic_edges.insert((pair[0].clone(), pair[1].clone()));
        }
        let witness: Vec<String> = cycle
            .windows(2)
            .map(|pair| {
                let e = edges.iter().find(|e| e.from == pair[0] && e.to == pair[1]);
                match e {
                    Some(e) => format!("{} -> {} ({}:{})", e.from, e.to, e.file, e.line),
                    None => format!("{} -> {}", pair[0], pair[1]),
                }
            })
            .collect();
        if let Some(first) = edges
            .iter()
            .find(|e| e.from == cycle[0] && e.to == cycle[1])
        {
            hits.push(StructHit {
                file: first.file.clone(),
                line: first.line - 1,
                col: first.col,
                rule: "lock-order-cycle".into(),
                snippet: format!("cycle: {}", cycle.join(" -> ")),
                hint: format!(
                    "lock acquisition order forms a cycle — witness path: {}; break it by \
                     acquiring in one global rank order (see CONTRIBUTING.md)",
                    witness.join("; ")
                ),
            });
        }
    }

    // Rank inversions on edges not already inside a reported cycle.
    for e in &edges {
        if cyclic_edges.contains(&(e.from.clone(), e.to.clone())) {
            continue;
        }
        let (Some(&rf), Some(&rt)) = (ranks.get(e.from.as_str()), ranks.get(e.to.as_str())) else {
            continue;
        };
        if rf >= rt {
            hits.push(StructHit {
                file: e.file.clone(),
                line: e.line - 1,
                col: e.col,
                rule: "lock-order-cycle".into(),
                snippet: format!(
                    "{}(rank {rf}) held while acquiring {}(rank {rt})",
                    e.from, e.to
                ),
                hint: format!(
                    "declared ranks require strictly increasing acquisition; re-rank the locks \
                     or reorder the acquisitions (edge via `{}`)",
                    e.via
                ),
            });
        }
    }

    let graph = LockGraph {
        locks: decls,
        edges,
        cycles,
    };
    (graph, hits)
}

/// Finds `OrderedMutex::new("name", rank, …)` / `OrderedRwLock::new(…)`
/// declarations. The pattern is located in the *masked* code (so `#[cfg(
/// test)]` declarations are invisible), then the name literal and rank are
/// read back from the raw source at the same position, across line breaks.
/// A constructor whose name and rank are not literals cannot join the graph,
/// so it is reported as a `lock-order-cycle` hit instead of being skipped.
fn collect_decls(files: &[AnalyzedFile]) -> (Vec<LockDecl>, Vec<StructHit>) {
    let mut out = Vec::new();
    let mut hits = Vec::new();
    for f in files {
        for (li, line) in f.code.iter().enumerate() {
            for ty in ["OrderedMutex", "OrderedRwLock"] {
                let needle = format!("{ty}::new(");
                let Some(col) = line.find(&needle) else {
                    continue;
                };
                let Some((name, rank)) = parse_decl_args(&f.raw, li, col + needle.len()) else {
                    hits.push(StructHit {
                        file: f.path.clone(),
                        line: li,
                        col,
                        rule: "lock-order-cycle".into(),
                        snippet: format!("{ty}::new without a literal name and rank"),
                        hint: "pass the lock's name and rank as literals (`\"name\", rank`) so \
                               the lock graph can place it"
                            .into(),
                    });
                    continue;
                };
                out.push(LockDecl {
                    name,
                    rank,
                    file: f.path.clone(),
                    line: li + 1,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.rank, &a.name).cmp(&(b.rank, &b.name)));
    (out, hits)
}

/// Parses `"name", rank` from `raw` starting at line `li`, char offset
/// `from` (just past the opening paren). The arguments may continue on the
/// following lines, as rustfmt wraps long constructor calls.
fn parse_decl_args(raw: &[String], li: usize, from: usize) -> Option<(String, u32)> {
    let mut chars = raw
        .get(li..)?
        .iter()
        .enumerate()
        .flat_map(|(k, line)| {
            let skip = if k == 0 { from } else { 0 };
            line.chars().skip(skip).chain(std::iter::once('\n'))
        })
        .peekable();
    while chars.next_if(|c| c.is_whitespace()).is_some() {}
    chars.next_if_eq(&'"')?;
    let name: String = chars.by_ref().take_while(|c| *c != '"').collect();
    while chars.next_if(|c| c.is_whitespace() || *c == ',').is_some() {}
    let mut digits = String::new();
    while let Some(c) = chars.next_if(|c| c.is_ascii_digit() || *c == '_') {
        if c != '_' {
            digits.push(c);
        }
    }
    if name.is_empty() {
        return None;
    }
    Some((name, digits.parse().ok()?))
}

/// Finds every acquisition site `X.lock()` / `X.read()` / `X.write()` (empty
/// argument list — `reader.read(buf)` is I/O, not a lock) whose receiver
/// word `X` names a declared lock, and computes each guard's token region.
fn find_acquires(f: &AnalyzedFile, ranks: &BTreeMap<&str, u32>) -> Vec<Acquire> {
    let toks = &f.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].word || !ranks.contains_key(toks[i].text.as_str()) {
            continue;
        }
        // Receiver must be followed by `.method()` with empty parens.
        let m = i + 2;
        if !(toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(m)
                .is_some_and(|t| t.word && ACQ_METHODS.contains(&t.text.as_str()))
            && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(m + 2).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let region = guard_region(toks, i, m + 2);
        out.push(Acquire {
            lock: toks[i].text.clone(),
            recv_tok: i,
            method: toks[m].text.clone(),
            region,
        });
    }
    out
}

/// Token range a guard acquired at `recv` (receiver index, with the call's
/// closing paren at `call_close`) stays live over. See the module docs for
/// the cases modelled.
fn guard_region(toks: &[Tok], recv: usize, call_close: usize) -> (usize, usize) {
    // Statement start: scan back to the nearest `;`, `{` or `}`.
    let mut stmt = recv;
    while stmt > 0 {
        let t = &toks[stmt - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        stmt -= 1;
    }
    let prefix = &toks[stmt..recv];
    let has_let = prefix.iter().any(|t| t.is_word("let"));
    let has_block_head = prefix
        .iter()
        .any(|t| t.is_word("if") || t.is_word("while") || t.is_word("match"));

    if has_block_head {
        // Scrutinee/condition temporary (or `while let` guard): live through
        // the governed `{ … }` block.
        let mut j = call_close;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        if j < toks.len() {
            if let Some(close) = syntax::brace_match(toks, j) {
                return (recv, close);
            }
        }
        return (recv, toks.len().saturating_sub(1));
    }

    if has_let {
        // Named guard: the word after `let` (skipping `mut`). A `_` binding
        // drops the guard immediately — treat like a temporary.
        let mut name: Option<&str> = None;
        let it = prefix.iter().skip_while(|t| !t.is_word("let")).skip(1);
        for t in it {
            if t.is_word("mut") {
                continue;
            }
            if t.word {
                name = Some(&t.text);
            }
            break;
        }
        if let Some(name) = name.filter(|n| *n != "_") {
            // Live to the enclosing block's close, or an explicit `drop(name)`.
            let mut depth = 0i64;
            let mut j = call_close + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        return (recv, j);
                    }
                } else if t.is_word("drop")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(j + 2).is_some_and(|n| n.is_word(name))
                    && toks.get(j + 3).is_some_and(|n| n.is_punct(')'))
                {
                    return (recv, j);
                }
                j += 1;
            }
            return (recv, toks.len().saturating_sub(1));
        }
    }

    // Temporary guard: to the end of the statement (`;` at this level,
    // skipping any nested blocks — closure bodies, struct literals).
    let mut depth = 0i64;
    let mut j = call_close + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return (recv, j);
            }
        } else if t.is_punct(';') && depth == 0 {
            return (recv, j);
        }
        j += 1;
    }
    (recv, toks.len().saturating_sub(1))
}

/// `fn name -> set of lock names its body (transitively) acquires`, over the
/// bare-name call graph. Same-named fns are merged (union semantics).
fn transitive_acquires(
    files: &[AnalyzedFile],
    acquires: &[Vec<Acquire>],
) -> BTreeMap<String, BTreeSet<String>> {
    // Direct acquisitions per fn name.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for item in &f.fns {
            let (open, close) = item.body;
            let entry = direct.entry(item.name.clone()).or_default();
            for acq in &acquires[fi] {
                if acq.recv_tok > open && acq.recv_tok < close {
                    entry.insert(acq.lock.clone());
                }
            }
            let callee_set = calls.entry(item.name.clone()).or_default();
            for i in open + 1..close {
                if syntax::is_resolvable_call(&f.toks, i) {
                    callee_set.insert(f.toks[i].text.clone());
                }
            }
        }
    }
    // Fixpoint propagation (the graph is tiny; iterate until stable).
    let mut summary = direct.clone();
    loop {
        let mut changed = false;
        for (name, callees) in &calls {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in callees {
                if callee == name {
                    continue;
                }
                if let Some(locks) = summary.get(callee) {
                    add.extend(locks.iter().cloned());
                }
            }
            let entry = summary.entry(name.clone()).or_default();
            for lock in add {
                changed |= entry.insert(lock);
            }
        }
        if !changed {
            break;
        }
    }
    summary.retain(|_, locks| !locks.is_empty());
    summary
}

/// `fn name -> description of the first blocking-I/O site its body
/// (transitively) reaches`, over the same bare-name call graph.
fn transitive_io(files: &[AnalyzedFile]) -> BTreeMap<String, String> {
    let mut direct: BTreeMap<String, String> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        for item in &f.fns {
            let (open, close) = item.body;
            let (start_line, end_line) = (f.toks[open].line, f.toks[close].line);
            'scan: for li in start_line..=end_line.min(f.code.len().saturating_sub(1)) {
                for tok in IO_TOKENS {
                    if find_io_token(&f.code[li], tok).is_some() {
                        direct
                            .entry(item.name.clone())
                            .or_insert_with(|| format!("`{tok}` at {}:{}", f.path, li + 1));
                        break 'scan;
                    }
                }
            }
            let callee_set = calls.entry(item.name.clone()).or_default();
            for i in open + 1..close {
                if syntax::is_resolvable_call(&f.toks, i) {
                    callee_set.insert(f.toks[i].text.clone());
                }
            }
        }
    }
    let mut summary = direct.clone();
    loop {
        let mut changed = false;
        for (name, callees) in &calls {
            if summary.contains_key(name) {
                continue;
            }
            for callee in callees {
                if callee == name {
                    continue;
                }
                if let Some(site) = summary.get(callee).cloned() {
                    summary.insert(name.clone(), format!("via `{callee}`, {site}"));
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    summary
}

/// Ident-boundary find for an I/O token in one masked line. Tokens starting
/// with `.` or an uppercase path are boundary-checked on the left only.
fn find_io_token(line: &str, token: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(at) = line[from..].find(token) {
        let pos = from + at;
        let ok_left = match token.chars().next() {
            Some('.') => true,
            _ => {
                pos == 0
                    || !line[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
            }
        };
        if ok_left {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Direct I/O tokens inside one guard region (masked-line scan over the
/// lines the token range covers, bounded by token columns on the edges).
fn direct_io_in_region(f: &AnalyzedFile, acq: &Acquire) -> Vec<StructHit> {
    let (start, end) = acq.region;
    let (sl, el) = (f.toks[start].line, f.toks[end.min(f.toks.len() - 1)].line);
    let mut out = Vec::new();
    for li in sl..=el.min(f.code.len().saturating_sub(1)) {
        let line = &f.code[li];
        for tok in IO_TOKENS {
            let Some(col) = find_io_token(line, tok) else {
                continue;
            };
            // On the boundary lines, respect the region's column extent.
            if li == sl && col < f.toks[start].col {
                continue;
            }
            out.push(StructHit {
                file: f.path.clone(),
                line: li,
                col,
                rule: "no-lock-held-io".into(),
                snippet: format!("{tok}…) while `{}` is held", acq.lock),
                hint: format!(
                    "blocking I/O under the `{}` {} guard stalls every thread queued on it; \
                     do the I/O first, then take the lock for the in-memory part",
                    acq.lock, acq.method
                ),
            });
        }
    }
    out
}

/// Enumerates elementary cycles (deduped by canonical rotation) in the edge
/// set via DFS from every node.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &root in &nodes {
        let mut path: Vec<&str> = vec![root];
        dfs_cycles(&adj, root, &mut path, &mut cycles, &mut seen);
    }
    cycles
}

fn dfs_cycles<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    node: &str,
    path: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<String>>,
    seen: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = path.iter().position(|&n| n == next) {
            let cycle: Vec<&str> = path[pos..].to_vec();
            // Canonical rotation: start at the lexicographically smallest.
            let min_at = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon: Vec<String> = cycle[min_at..]
                .iter()
                .chain(cycle[..min_at].iter())
                .map(|s| s.to_string())
                .collect();
            if seen.insert(canon.clone()) {
                canon.push(canon[0].clone());
                cycles.push(canon);
            }
            continue;
        }
        if path.len() > 32 {
            continue; // defensive bound; real graphs are tiny
        }
        path.push(next);
        dfs_cycles(adj, next, path, cycles, seen);
        path.pop();
    }
}

/// Serializes the graph as deterministic `lock_graph/v2` JSON (stable field
/// and element order, trailing newline). Entries name files but not lines,
/// so moving code changes the artifact only when the graph itself changes
/// (edges are already unique per `(from, to, via)`).
pub fn to_json(graph: &LockGraph) -> String {
    let esc = crate::report::json_string;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"lock_graph/v2\",\n");
    out.push_str("  \"locks\": [");
    for (i, l) in graph.locks.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"name\": {}, \"rank\": {}, \"file\": {}}}",
            esc(&l.name),
            l.rank,
            esc(&l.file)
        );
    }
    out.push_str("\n  ],\n  \"edges\": [");
    for (i, e) in graph.edges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"from\": {}, \"to\": {}, \"via\": {}, \"file\": {}}}",
            esc(&e.from),
            esc(&e.to),
            esc(&e.via),
            esc(&e.file)
        );
    }
    out.push_str("\n  ],\n  \"cycles\": [");
    for (i, c) in graph.cycles.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let names: Vec<String> = c.iter().map(|n| esc(n)).collect();
        let _ = write!(out, "    [{}]", names.join(", "));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn analyzed(path: &str, src: &str) -> AnalyzedFile {
        let lexed = lexer::lex(src);
        AnalyzedFile::new(path, src, &lexed.code)
    }

    fn run(src: &str) -> (LockGraph, Vec<StructHit>) {
        let files = vec![analyzed("crates/x/src/lib.rs", src)];
        analyze(&files, &|_, _| true)
    }

    #[test]
    fn decl_parsing_reads_name_and_rank_from_raw() {
        let src = r#"
struct S { a: OrderedMutex<u32> }
fn make() -> S {
    S { a: OrderedMutex::new("alpha", 1_0, 7) }
}
"#;
        let (graph, _) = run(src);
        assert_eq!(graph.locks.len(), 1);
        assert_eq!(graph.locks[0].name, "alpha");
        assert_eq!(graph.locks[0].rank, 10);
    }

    #[test]
    fn nested_acquisition_produces_an_edge() {
        let src = r#"
fn init() {
    let a = OrderedMutex::new("a", 10, ());
    let b = OrderedMutex::new("b", 20, ());
}
fn nest(s: &S) {
    let ga = s.a.lock();
    let gb = s.b.lock();
}
"#;
        let (graph, hits) = run(src);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(
            (graph.edges[0].from.as_str(), graph.edges[0].to.as_str()),
            ("a", "b")
        );
        assert!(graph.cycles.is_empty());
        assert!(hits.is_empty(), "in-rank-order nesting is clean: {hits:?}");
    }

    #[test]
    fn temporary_guard_region_ends_at_statement() {
        let src = r#"
fn init() {
    let a = OrderedMutex::new("a", 10, ());
    let b = OrderedMutex::new("b", 20, ());
}
fn sequential(s: &S) {
    s.b.lock().clear();
    s.a.lock().clear();
}
"#;
        let (graph, hits) = run(src);
        assert!(graph.edges.is_empty(), "sequential temporaries do not nest");
        assert!(hits.is_empty());
    }

    #[test]
    fn drop_ends_a_named_guard_region() {
        let src = r#"
fn init() {
    let hi = OrderedMutex::new("hi", 20, ());
    let lo = OrderedMutex::new("lo", 10, ());
}
fn ok(s: &S) {
    let g = s.hi.lock();
    drop(g);
    let g2 = s.lo.lock();
}
"#;
        let (graph, _) = run(src);
        assert!(graph.edges.is_empty(), "{:?}", graph.edges);
    }

    #[test]
    fn rank_inversion_is_reported_without_a_cycle() {
        let src = r#"
fn init() {
    let hi = OrderedMutex::new("hi", 20, ());
    let lo = OrderedMutex::new("lo", 10, ());
}
fn inverted(s: &S) {
    let g = s.hi.lock();
    let g2 = s.lo.lock();
}
"#;
        let (graph, hits) = run(src);
        assert_eq!(graph.edges.len(), 1);
        assert!(graph.cycles.is_empty());
        let inversions: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == "lock-order-cycle")
            .collect();
        assert_eq!(inversions.len(), 1);
        assert!(inversions[0].snippet.contains("rank 20"));
    }

    #[test]
    fn cycle_detected_with_witness_path() {
        let src = r#"
fn init() {
    let a = OrderedMutex::new("a", 10, ());
    let b = OrderedMutex::new("b", 20, ());
}
fn forward(s: &S) {
    let ga = s.a.lock();
    let gb = s.b.lock();
}
fn backward(s: &S) {
    let gb = s.b.lock();
    let ga = s.a.lock();
}
"#;
        let (graph, hits) = run(src);
        assert_eq!(graph.cycles.len(), 1);
        assert_eq!(graph.cycles[0], vec!["a", "b", "a"]);
        let cycle_hits: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == "lock-order-cycle" && h.snippet.starts_with("cycle:"))
            .collect();
        assert_eq!(cycle_hits.len(), 1);
        assert!(
            cycle_hits[0].hint.contains("witness path"),
            "{}",
            cycle_hits[0].hint
        );
        assert!(
            cycle_hits[0].hint.contains(":"),
            "witness carries file:line"
        );
    }

    #[test]
    fn transitive_edge_through_a_free_call() {
        let src = r#"
fn init() {
    let a = OrderedMutex::new("a", 10, ());
    let b = OrderedMutex::new("b", 20, ());
}
fn takes_b(s: &S) {
    s.b.lock().clear();
}
fn outer(s: &S) {
    let ga = s.a.lock();
    takes_b(s);
}
"#;
        let (graph, _) = run(src);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(graph.edges[0].via, "takes_b");
    }

    #[test]
    fn io_under_guard_is_flagged_and_io_before_is_not() {
        let src = r#"
fn init() {
    let m = OrderedRwLock::new("model", 20, ());
}
fn bad(s: &S) {
    let g = s.model.write();
    let bytes = fs::read(path);
}
fn good(s: &S) {
    let bytes = fs::read(path);
    let g = s.model.write();
}
"#;
        let (_, hits) = run(src);
        let io: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == "no-lock-held-io")
            .collect();
        assert_eq!(io.len(), 1, "{hits:?}");
        assert!(io[0].snippet.contains("model"));
    }

    #[test]
    fn read_with_arguments_is_io_not_a_lock_acquisition() {
        let src = r#"
fn init() {
    let m = OrderedRwLock::new("socket", 20, ());
}
fn reader(s: &S, buf: &mut [u8]) {
    s.socket.read(buf);
}
"#;
        let files = vec![analyzed("crates/x/src/lib.rs", src)];
        let (decls, _) = collect_decls(&files);
        let ranks: BTreeMap<&str, u32> = decls.iter().map(|d| (d.name.as_str(), d.rank)).collect();
        assert!(find_acquires(&files[0], &ranks).is_empty());
    }

    #[test]
    fn json_is_deterministic_and_versioned() {
        let (graph, _) = run(r#"
fn init() {
    let a = OrderedMutex::new("a", 10, ());
}
"#);
        let json = to_json(&graph);
        assert!(json.contains("\"schema\": \"lock_graph/v2\""));
        assert!(!json.contains("\"line\""));
        assert_eq!(json, to_json(&graph));
    }
}
