//! A whole-workspace lexical call-graph extractor.
//!
//! Built on the [`crate::lex`] hand lexer — no rustc, no syn — so it
//! shares `raal-lint`'s zero-dependency posture and its soundness
//! model: the graph is an *over-approximation* of the real call graph
//! wherever the lexical scan cannot resolve a callee precisely, and the
//! few places it can under-approximate are documented (DESIGN.md §16).
//!
//! **Definitions.** Every `fn` item in every workspace source becomes a
//! [`FnNode`], keyed by crate, enclosing `impl` type (when the `fn` sits
//! inside an `impl Ty { .. }` or `impl Trait for Ty { .. }` block) and
//! name. Test code (`#[cfg(test)]` modules, `tests/`, `benches/`) is
//! carried but marked, so hot-path analyses can skip it.
//!
//! **Call resolution**, from most to least precise:
//!
//! * `self.name(..)` / `Self::name(..)` — resolved to the method `name`
//!   of the enclosing impl type when it exists, else falls through to
//!   the by-name rule.
//! * `Qual::name(..)` — when `Qual` is a known workspace impl type, the
//!   edge goes to that type's `name` method; when `Qual` is anything
//!   else (a module path, an external type), the edge goes to every
//!   workspace *free* function called `name`, else every function
//!   called `name`.
//! * `recv.name(..)` with an opaque receiver — the **unknown-callee**
//!   rule: conservative edges to *every* workspace function named
//!   `name`, whatever its impl type. This is what makes reachability an
//!   over-approximation rather than a guess.
//! * `name(..)` — every workspace free function named `name`.
//!
//! Call names that match no workspace function at all (std and vendored
//! callees such as `Vec::push` or `iter().map(..)`) resolve to no edge;
//! they are recorded per node in [`CallGraph::external`] for
//! diagnostics. Panic/alloc behaviour of std callees is instead covered
//! by the *site* catalogs in [`crate::panic`], which look at the caller
//! text — so an unresolved `.unwrap()` still counts as a panic site in
//! the function that wrote it.
//!
//! Macro bodies are scanned as text (a call inside `format!(..)` still
//! produces an edge); macro *invocations* themselves (`name!(..)`) are
//! not call edges.

use crate::lex::{self, FnSpan, Views};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Rust keywords and keyword-like tokens that can precede `(` without
/// being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// Method names from the std prelude vocabulary (Iterator / Option /
/// Result / collections / Default / Clone / Display). A dotted call
/// with one of these names almost always targets std — linking
/// `predict_packed`'s `.collect()` to an unrelated
/// `Collector::collect` three crates away, or a kernel's
/// `.enumerate()` to `Planner::enumerate`, would drag entire crates
/// into hot-path reachability. These names are therefore treated as
/// *external* at unknown-receiver call sites: no fan-out edge. The
/// cost is a documented under-approximation — a workspace method that
/// shadows a std name is only resolved when the receiver type is
/// inferable (`self.`, `Type::`). Sync vocabulary (`lock`, `send`,
/// `recv`, `wait`) is included deliberately: in production builds the
/// `raal_sync` primitives are std re-exports, and the `checked` shims
/// they shadow are compiled only under `cfg(raal_model_check)`, so a
/// dotted `.send(` in serving code targets std, not the model-check
/// scheduler.
const STD_METHODS: &[&str] = &[
    "abs",
    "add",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "ends_with",
    "eq",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from_iter",
    "get",
    "get_mut",
    "hash",
    "index",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "lock",
    "map",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "mul_add",
    "next",
    "notify_all",
    "notify_one",
    "nth",
    "offset",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "read",
    "recv",
    "recv_timeout",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "sub",
    "sum",
    "swap",
    "take",
    "tanh",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_recv",
    "values",
    "wait",
    "wait_timeout",
    "windows",
    "write",
    "zip",
];

/// One function definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in the source list passed to
    /// [`CallGraph::build`].
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Crate name (`crates/<name>/...`), or `""` outside `crates/`.
    pub krate: String,
    /// Enclosing `impl` type, when the fn is a method / associated fn.
    pub self_ty: Option<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the body braces in the defining file.
    pub body: Range<usize>,
    /// Whether the fn lives in test code (cfg(test) module, tests/ or
    /// benches/ path).
    pub is_test: bool,
}

impl FnNode {
    /// `Type::name` or plain `name`, for messages.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A declared hot entry point, matched against [`FnNode`]s by crate,
/// impl type and name.
#[derive(Debug, Clone, Copy)]
pub struct EntryPoint {
    /// Crate the entry point lives in.
    pub krate: &'static str,
    /// Impl type for methods, `None` for free functions.
    pub self_ty: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

/// The serving-path entry points whose transitive callees must be
/// panic-free and allocation-free (or justified). Kept here — next to
/// the resolution rules — so the list is versioned with the analyzer.
///
/// The set covers the three layers of the latency path: the serving
/// service (`ShardedServing::predict*`, the whole request path on the
/// calling thread, and its `ServingModel` façade), the model fast paths
/// (`CostModel` / `FrozenModel` context planning, per-plan prediction
/// and `predict_with_context`, the head every served plan ends in),
/// the plan encoder, the `nn` inference kernel set, and the telemetry
/// record calls those paths are allowed to make.
pub const HOT_ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint {
        krate: "core",
        self_ty: Some("ServingModel"),
        name: "predict",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("ServingModel"),
        name: "predict_many",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("ShardedServing"),
        name: "predict",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("ShardedServing"),
        name: "predict_many",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("FrozenModel"),
        name: "predict_seconds",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("FrozenModel"),
        name: "predict_with_context",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("FrozenModel"),
        name: "plan_context",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("FrozenModel"),
        name: "predict_packed",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("CostModel"),
        name: "predict_seconds",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("CostModel"),
        name: "predict_with_context",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("CostModel"),
        name: "plan_context",
    },
    EntryPoint {
        krate: "core",
        self_ty: Some("CostModel"),
        name: "predict_packed",
    },
    // The encoder every uncached request runs: statement rendering,
    // tokenizing, embedding lookup and the plan's tree check.
    EntryPoint {
        krate: "encoding",
        self_ty: Some("PlanEncoder"),
        name: "encode",
    },
    // The same pass as one of a call's several plans, through the
    // call's operator memo.
    EntryPoint {
        krate: "encoding",
        self_ty: Some("PlanEncoder"),
        name: "try_encode_in",
    },
    EntryPoint { krate: "nn", self_ty: None, name: "matmul_into" },
    EntryPoint { krate: "nn", self_ty: None, name: "matmul_q8_into" },
    EntryPoint {
        krate: "nn",
        self_ty: None,
        name: "softmax_inplace",
    },
    EntryPoint { krate: "nn", self_ty: None, name: "sigmoid_slice" },
    EntryPoint { krate: "nn", self_ty: None, name: "tanh_slice" },
    EntryPoint { krate: "nn", self_ty: None, name: "activate" },
    EntryPoint { krate: "nn", self_ty: None, name: "dot" },
    EntryPoint { krate: "nn", self_ty: None, name: "axpy" },
    EntryPoint { krate: "telemetry", self_ty: None, name: "count" },
    EntryPoint { krate: "telemetry", self_ty: None, name: "observe" },
    EntryPoint { krate: "telemetry", self_ty: None, name: "gauge" },
];

/// The workspace call graph: nodes, adjacency, and the unresolved
/// (external) callee names per node.
pub struct CallGraph {
    /// All function definitions, in file order.
    pub fns: Vec<FnNode>,
    edges: Vec<Vec<usize>>,
    /// Per node, callee names that matched no workspace function.
    pub external: Vec<BTreeSet<String>>,
}

/// Result of a reachability sweep: which nodes are reachable and, for
/// each, the caller that first reached it (for witness chains).
pub struct Reachability {
    /// `reached[i]` — node `i` is transitively callable from a root.
    pub reached: Vec<bool>,
    /// BFS parent of each reached node (`None` for roots).
    pub parent: Vec<Option<usize>>,
}

impl CallGraph {
    /// Extracts the call graph from `(relative path, source)` pairs.
    pub fn build(sources: &[(String, String)]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        let mut views: Vec<Views> = Vec::with_capacity(sources.len());
        let mut spans_per_file: Vec<Vec<FnSpan>> = Vec::with_capacity(sources.len());
        for (file, (rel, source)) in sources.iter().enumerate() {
            let v = lex::lex_views(source);
            let starts = lex::line_starts(source);
            let tests = lex::test_ranges(&v.blanked);
            let impls = impl_blocks(&v.blanked);
            let spans = lex::fn_spans(&v.blanked);
            let test_file = lex::is_test_path(rel);
            for s in &spans {
                // Innermost enclosing impl block claims the fn.
                let self_ty = impls
                    .iter()
                    .filter(|(r, _)| r.contains(&s.at))
                    .min_by_key(|(r, _)| r.len())
                    .map(|(_, ty)| ty.clone());
                fns.push(FnNode {
                    file,
                    path: rel.clone(),
                    krate: lex::crate_of(rel).unwrap_or("").to_string(),
                    self_ty,
                    name: s.name.clone(),
                    line: lex::line_of(&starts, s.at),
                    body: s.range.clone(),
                    is_test: test_file || lex::in_ranges(&tests, s.at),
                });
            }
            views.push(v);
            spans_per_file.push(spans);
        }

        // Name indices over the collected nodes.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut known_tys: BTreeSet<&str> = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
            match &f.self_ty {
                Some(ty) => {
                    methods.entry((ty, &f.name)).or_default().push(i);
                    known_tys.insert(ty);
                }
                None => free_by_name.entry(&f.name).or_default().push(i),
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut external: Vec<BTreeSet<String>> = vec![BTreeSet::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                // Test code never seeds or propagates hot-path
                // reachability; leaving its edges out keeps a fan-out
                // that happens to hit a test helper from dragging the
                // whole test module into the reachable set.
                continue;
            }
            let blanked = &views[f.file].blanked;
            // A nested fn's body is inside ours; its calls are its own.
            let inner: Vec<Range<usize>> = spans_per_file[f.file]
                .iter()
                .filter(|s| s.range.start > f.body.start && s.range.end <= f.body.end)
                .map(|s| s.range.clone())
                .collect();
            // Fan-out candidate set for a callee we cannot type: every
            // same-named fn — except std prelude vocabulary, which is
            // assumed external (see [`STD_METHODS`]).
            let fan_out = |name: &str| -> Vec<usize> {
                if STD_METHODS.contains(&name) {
                    return Vec::new();
                }
                by_name.get(name).cloned().unwrap_or_default()
            };
            for call in call_sites(blanked, f.body.clone()) {
                if lex::in_ranges(&inner, call.at) {
                    continue;
                }
                let mut targets: Vec<usize> = Vec::new();
                match call.kind {
                    CallKind::SelfMethod => {
                        let own = f
                            .self_ty
                            .as_deref()
                            .and_then(|ty| methods.get(&(ty, call.name.as_str())));
                        match own {
                            Some(list) => targets.extend_from_slice(list),
                            // A trait-provided or derived method: fall
                            // back to the fan-out set.
                            None => targets.extend(fan_out(&call.name)),
                        }
                    }
                    CallKind::Qualified(ref qual) => {
                        let qual: &str = match qual.as_str() {
                            "Self" | "self" => f.self_ty.as_deref().unwrap_or(""),
                            q => q,
                        };
                        if known_tys.contains(qual) {
                            match methods.get(&(qual, call.name.as_str())) {
                                Some(list) => targets.extend_from_slice(list),
                                None => targets.extend(fan_out(&call.name)),
                            }
                        } else if let Some(list) = free_by_name.get(call.name.as_str()) {
                            // Module-qualified free fn (`infer::dot(..)`).
                            targets.extend_from_slice(list);
                        }
                        // An unknown qualifier with no free-fn match is an
                        // external type (`String::from`, `StdRng::..`):
                        // no edge, recorded below.
                    }
                    CallKind::Method => {
                        // Unknown receiver: conservative fan-out to every
                        // same-named (crate-filtered for std vocabulary)
                        // workspace fn.
                        targets.extend(fan_out(&call.name));
                    }
                    CallKind::Free => {
                        targets.extend(free_by_name.get(call.name.as_str()).into_iter().flatten());
                    }
                }
                if targets.is_empty() {
                    external[i].insert(call.name);
                } else {
                    edges[i].extend(targets);
                }
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }
        CallGraph { fns, edges, external }
    }

    /// The callee indices of node `i`.
    pub fn edges_of(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// Indices of the nodes matching `(krate, self_ty, name)`.
    pub fn find(&self, krate: &str, self_ty: Option<&str>, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.krate == krate && f.name == name && f.self_ty.as_deref() == self_ty && !f.is_test
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all nodes matching the declared hot entry points.
    pub fn entry_indices(&self, entries: &[EntryPoint]) -> Vec<usize> {
        let mut out: Vec<usize> = entries
            .iter()
            .flat_map(|e| self.find(e.krate, e.self_ty, e.name))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS from `roots`, following call edges.
    pub fn reachable_from(&self, roots: &[usize]) -> Reachability {
        let n = self.fns.len();
        let mut reached = vec![false; n];
        let mut parent = vec![None; n];
        let mut queue: std::collections::VecDeque<usize> = roots
            .iter()
            .copied()
            .filter(|&r| {
                let fresh = !reached[r];
                reached[r] = true;
                fresh
            })
            .collect();
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if !reached[v] {
                    reached[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        Reachability { reached, parent }
    }

    /// The witness chain root → … → `i` as `Type::name` strings.
    pub fn chain(&self, reach: &Reachability, i: usize) -> Vec<String> {
        let mut rev = vec![i];
        let mut cur = i;
        while let Some(p) = reach.parent[cur] {
            rev.push(p);
            cur = p;
        }
        rev.iter().rev().map(|&j| self.fns[j].qualified()).collect()
    }
}

/// Pure reachability over an explicit edge list — the algorithm behind
/// [`CallGraph::reachable_from`], exposed for property tests (e.g.
/// monotonicity under edge addition).
pub fn reachable(n: usize, edges: &[(usize, usize)], roots: &[usize]) -> Vec<bool> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        if u < n && v < n {
            adj[u].push(v);
        }
    }
    let mut reached = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> =
        Vec::from(roots).into_iter().filter(|&r| r < n).collect();
    for &r in queue.iter() {
        reached[r] = true;
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !reached[v] {
                reached[v] = true;
                queue.push_back(v);
            }
        }
    }
    reached
}

/// `impl` block body ranges with the cleaned self-type name.
fn impl_blocks(blanked: &str) -> Vec<(Range<usize>, String)> {
    let bytes = blanked.as_bytes();
    let n = bytes.len();
    let mut out = Vec::new();
    for at in lex::find_word(blanked, "impl") {
        let mut i = at + 4;
        while i < n && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        // Skip the generic parameter list of `impl<..>`.
        if i < n && bytes[i] == b'<' {
            let mut depth = 1i32;
            i += 1;
            while i < n && depth > 0 {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
        }
        // Header runs to the block `{` at angle depth 0. Track the
        // first top-level ` for ` separating trait from self type.
        let hdr_start = i;
        let mut depth = 0i32;
        let mut for_at: Option<usize> = None;
        let mut open = None;
        while i < n {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' => depth = (depth - 1).max(0),
                b'{' if depth == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if depth == 0 => break,
                b'f' if depth == 0
                    && for_at.is_none()
                    && blanked[i..].starts_with("for")
                    && (i == 0 || !lex::is_ident_byte(bytes[i - 1]))
                    && !lex::is_ident_byte(*bytes.get(i + 3).unwrap_or(&b' ')) =>
                {
                    for_at = Some(i);
                }
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let ty_txt = match for_at {
            Some(p) => &blanked[p + 3..open],
            None => &blanked[hdr_start..open],
        };
        let Some(ty) = clean_type_name(ty_txt) else {
            continue;
        };
        out.push((open..lex::match_brace(bytes, open), ty));
    }
    out
}

/// The head identifier of a self-type expression: strips references,
/// `mut` / `dyn`, lifetimes and a leading path, truncates at generics.
/// `&'a mut crate::serving::Handoff<Req, Resp>` → `Handoff`.
fn clean_type_name(txt: &str) -> Option<String> {
    let mut t = txt.trim();
    loop {
        let before = t;
        t = t.trim_start_matches(['&', '(']).trim_start();
        if let Some(rest) = t.strip_prefix('\'') {
            // Lifetime: skip the identifier after the tick.
            t = rest
                .trim_start_matches(|c: char| c.is_alphanumeric() || c == '_')
                .trim_start();
        }
        for kw in ["mut ", "dyn ", "where "] {
            t = t.strip_prefix(kw).unwrap_or(t).trim_start();
        }
        if t == before {
            break;
        }
    }
    let head: &str = t
        .split(|c: char| c == '<' || c == '(' || c.is_whitespace())
        .next()
        .unwrap_or("");
    let name = head.rsplit("::").next().unwrap_or("").trim();
    if name.is_empty() || !name.bytes().all(lex::is_ident_byte) {
        None
    } else {
        Some(name.to_string())
    }
}

/// How a call site names its callee.
enum CallKind {
    /// `self.name(..)`.
    SelfMethod,
    /// `Qual::name(..)` — the last path segment before the name.
    Qualified(String),
    /// `recv.name(..)` with an opaque receiver.
    Method,
    /// Plain `name(..)`.
    Free,
}

struct CallSite {
    at: usize,
    name: String,
    kind: CallKind,
}

/// Lexical call sites inside `body` of the blanked view: an identifier
/// followed (modulo whitespace and a turbofish) by `(`, that is neither
/// a keyword, a macro invocation, nor a `fn` definition header.
fn call_sites(blanked: &str, body: Range<usize>) -> Vec<CallSite> {
    let bytes = blanked.as_bytes();
    let n = body.end.min(bytes.len());
    let mut out = Vec::new();
    let mut i = body.start;
    while i < n {
        if !lex::is_ident_byte(bytes[i]) || (i > 0 && lex::is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let at = i;
        let mut j = i;
        while j < n && lex::is_ident_byte(bytes[j]) {
            j += 1;
        }
        i = j;
        let name = &blanked[at..j];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // Optional turbofish, then `(` makes it a call; `!` a macro.
        let mut k = j;
        while k < n && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        if blanked[k..].starts_with("::<") {
            let mut depth = 1i32;
            k += 3;
            while k < n && depth > 0 {
                match bytes[k] {
                    b'<' => depth += 1,
                    b'>' => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            while k < n && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
        }
        if k >= n || bytes[k] != b'(' {
            continue;
        }
        // Context before the identifier decides the call kind.
        let mut p = at;
        while p > body.start && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        let kind = if p >= 2 && &blanked[p - 2..p] == "::" {
            // Walk back over the qualifying path segment.
            let mut q = p - 2;
            while q > body.start && lex::is_ident_byte(bytes[q - 1]) {
                q -= 1;
            }
            let qual = &blanked[q..p - 2];
            if qual.is_empty() {
                CallKind::Free // leading `::name(..)`
            } else {
                CallKind::Qualified(qual.to_string())
            }
        } else if p >= 1 && bytes[p - 1] == b'.' {
            // Receiver directly before the dot: `self.name(..)` only
            // when the whole receiver is the `self` token.
            let mut q = p - 1;
            while q > body.start && lex::is_ident_byte(bytes[q - 1]) {
                q -= 1;
            }
            let recv = &blanked[q..p - 1];
            let deeper = q > body.start && matches!(bytes[q - 1], b'.' | b')' | b']');
            if recv == "self" && !deeper {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            }
        } else {
            // `fn name(` is a definition, not a call. (`fn` is the
            // preceding word; attributes/visibility cannot intervene
            // between `fn` and the name.)
            let mut q = p;
            while q > body.start && lex::is_ident_byte(bytes[q - 1]) {
                q -= 1;
            }
            if &blanked[q..p] == "fn" {
                continue;
            }
            CallKind::Free
        };
        out.push(CallSite { at, name: name.to_string(), kind });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        CallGraph::build(&sources)
    }

    fn idx(g: &CallGraph, ty: Option<&str>, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.self_ty.as_deref() == ty && f.name == name)
            .unwrap_or_else(|| panic!("no fn {ty:?}::{name}"))
    }

    #[test]
    fn self_method_resolves_to_own_impl_only() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A {\n    pub fn go(&self) { self.step(); }\n    fn step(&self) {}\n}\n\
             impl B {\n    fn step(&self) {}\n}\n",
        )]);
        let go = idx(&g, Some("A"), "go");
        let a_step = idx(&g, Some("A"), "step");
        let b_step = idx(&g, Some("B"), "step");
        assert_eq!(g.edges_of(go), &[a_step]);
        assert_ne!(a_step, b_step);
    }

    #[test]
    fn opaque_receiver_fans_out_to_every_same_named_fn() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A {\n    fn step(&self) {}\n}\n\
             impl B {\n    fn step(&self) {}\n}\n\
             pub fn drive(x: &A) { x.step(); }\n",
        )]);
        let drive = idx(&g, None, "drive");
        let mut want = vec![idx(&g, Some("A"), "step"), idx(&g, Some("B"), "step")];
        want.sort_unstable();
        assert_eq!(g.edges_of(drive), want.as_slice(), "unknown receiver must be conservative");
    }

    #[test]
    fn qualified_type_call_resolves_by_receiver_type() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A {\n    pub fn make() -> A { A }\n}\n\
             impl B {\n    pub fn make() -> B { B }\n}\n\
             pub fn build() { let _ = A::make(); }\n",
        )]);
        let build = idx(&g, None, "build");
        assert_eq!(g.edges_of(build), &[idx(&g, Some("A"), "make")]);
    }

    #[test]
    fn module_qualified_free_fn_resolves_across_crates() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn predict() { infer::dot(); telemetry::count(); }\n",
            ),
            ("crates/nn/src/infer.rs", "pub fn dot() {}\n"),
            ("crates/telemetry/src/lib.rs", "pub fn count() {}\n"),
        ]);
        let predict = idx(&g, None, "predict");
        let mut want = vec![idx(&g, None, "dot"), idx(&g, None, "count")];
        want.sort_unstable();
        assert_eq!(g.edges_of(predict), want.as_slice());
    }

    #[test]
    fn external_calls_make_no_edges_but_are_recorded() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn f(v: &mut Vec<u32>) { v.push(1); String::from(\"x\"); }\n",
        )]);
        let f = idx(&g, None, "f");
        assert!(g.edges_of(f).is_empty());
        assert!(g.external[f].contains("push"), "{:?}", g.external[f]);
        assert!(g.external[f].contains("from"), "{:?}", g.external[f]);
    }

    #[test]
    fn plain_call_does_not_link_methods() {
        // An unqualified `step()` cannot be a method call; only free
        // fns are candidates.
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct A;\nimpl A {\n    fn step(&self) {}\n}\n\
             pub fn step_free() {}\npub fn f() { step_free(); }\n",
        )]);
        let f = idx(&g, None, "f");
        assert_eq!(g.edges_of(f), &[idx(&g, None, "step_free")]);
    }

    #[test]
    fn impl_trait_for_type_keys_methods_by_the_type() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct W;\npub trait Work { fn work(&self); }\n\
             impl Work for W {\n    fn work(&self) { helper(); }\n}\n\
             fn helper() {}\n\
             pub fn run() { W::work(&W); }\n",
        )]);
        let run = idx(&g, None, "run");
        let work = idx(&g, Some("W"), "work");
        assert_eq!(g.edges_of(run), &[work]);
        assert_eq!(g.edges_of(work), &[idx(&g, None, "helper")]);
    }

    #[test]
    fn generic_impl_headers_resolve_their_type_name() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct H<Q, R> { q: Q, r: R }\n\
             impl<Q: Send, R> H<Q, R> {\n    pub fn go(&self) {}\n}\n\
             impl<'a> std::fmt::Display for &'a H<u8, u8> {\n\
                 fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { todo!() }\n\
             }\n",
        )]);
        assert!(g
            .fns
            .iter()
            .any(|f| f.self_ty.as_deref() == Some("H") && f.name == "go"));
        assert!(g
            .fns
            .iter()
            .any(|f| f.self_ty.as_deref() == Some("H") && f.name == "fmt"));
    }

    #[test]
    fn test_code_is_marked() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib_fn(); }\n}\n",
            ),
            ("crates/core/tests/x.rs", "fn integration() {}\n"),
        ]);
        assert!(!g.fns[idx(&g, None, "lib_fn")].is_test);
        assert!(g.fns[idx(&g, None, "t")].is_test);
        assert!(g.fns[idx(&g, None, "integration")].is_test);
    }

    #[test]
    fn macro_invocations_are_not_call_edges() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn assert_eq() {}\npub fn f() { assert_eq!(1, 1); }\n",
        )]);
        let f = idx(&g, None, "f");
        assert!(g.edges_of(f).is_empty(), "macro must not alias the fn of the same name");
    }

    #[test]
    fn turbofish_calls_still_resolve() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn make() {}\npub fn f() { make::<>(); parse::<u32>(); }\n",
        )]);
        let f = idx(&g, None, "f");
        assert_eq!(g.edges_of(f), &[idx(&g, None, "make")]);
        assert!(g.external[f].contains("parse"));
    }

    #[test]
    fn entry_points_and_chains() {
        let g = graph(&[
            (
                "crates/core/src/serving/mod.rs",
                "pub struct ServingModel;\nimpl ServingModel {\n    \
                 pub fn predict(&self) { self.inner(); }\n    \
                 fn inner(&self) { nn::matmul_into(); }\n}\n",
            ),
            ("crates/nn/src/infer.rs", "pub fn matmul_into() { helper(); }\nfn helper() {}\n"),
        ]);
        let roots = g.entry_indices(HOT_ENTRY_POINTS);
        assert!(!roots.is_empty());
        let reach = g.reachable_from(&roots);
        let helper = idx(&g, None, "helper");
        assert!(reach.reached[helper]);
        let chain = g.chain(&reach, helper);
        assert_eq!(chain.last().map(String::as_str), Some("helper"));
        assert!(chain.len() >= 2, "{chain:?}");
    }

    #[test]
    fn reachability_helper_matches_graph_bfs() {
        let edges = [(0usize, 1usize), (1, 2), (3, 4)];
        let r = reachable(5, &edges, &[0]);
        assert_eq!(r, vec![true, true, true, false, false]);
        let r = reachable(5, &edges, &[3]);
        assert_eq!(r, vec![false, false, false, true, true]);
    }
}
