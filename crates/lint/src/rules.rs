//! The rule registry and the per-file rule engine.
//!
//! Every rule has a stable ID, fires on masked code only (see
//! [`crate::lexer`]), and can be silenced per site with
//!
//! ```text
//! // lint: allow(W003, reason = "why this site is exempt")
//! // lint: allow(W003, scope = "block", reason = "covers the whole block")
//! ```
//!
//! A line-scoped allow covers the code line it is attached to (the same
//! line for a trailing comment, the next code line otherwise) plus the two
//! following lines, so multi-line statements need one annotation, not three.
//! A block-scoped allow covers the attached line's entire brace block —
//! attach it to a `fn` signature to exempt the whole function. An allow
//! without a non-empty `reason` is itself a finding (L001): the escape
//! hatch must leave a reviewable trail.

use crate::lexer::{lex, Scan};

/// One rule violation (or a malformed allow-annotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`W001`–`W008`, `L001`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A rule's registry entry, shown by `--list-rules`.
pub struct RuleInfo {
    /// Stable ID.
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// One-line contract statement.
    pub summary: &'static str,
}

/// Every rule the engine knows, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "W001",
        name: "kernel-containment",
        summary: "word-granularity bit loops (u64 iteration + &/|/count_ones) live in \
                  crates/core/src/kernels.rs or crates/store/src/crc32.rs only — compose \
                  the kernels, don't re-open word loops",
    },
    RuleInfo {
        id: "W002",
        name: "lock-hold-discipline",
        summary: "a .read()/.write() guard binding must not live across .execute(), \
                  fsync/sync_all/sync_data, or File::/OpenOptions calls in its block \
                  (the executor-stall shape PR 1's lock split removed)",
    },
    RuleInfo {
        id: "W003",
        name: "hot-path-panic-freedom",
        summary: "no unwrap/expect/panic!/unreachable!/todo! or non-literal slice \
                  indexing in the declared hot modules (kernels, provenance, executor \
                  evaluate, WAL frame encode/decode); kernels.rs is exempt from the \
                  index facet — its autovectorization contract licenses \
                  chunk-granularity indexing",
    },
    RuleInfo {
        id: "W004",
        name: "atomic-ordering-audit",
        summary: "every Ordering::Relaxed site carries a justification comment \
                  (mentioning \"relaxed\", same line or up to 3 lines above) or an \
                  allow-annotation",
    },
    RuleInfo {
        id: "W005",
        name: "checked-wal-casts",
        summary: "no `as u32` / `as u64` casts in crates/store/src/{frame,wal,crc32}.rs \
                  — use try_into/try_from (or annotate a provably-widening cast)",
    },
    RuleInfo {
        id: "W006",
        name: "print-containment",
        summary: "no println!/print!/eprintln!/eprint!/dbg! or process::exit outside \
                  crates/cli, bin targets, examples, and tests",
    },
    RuleInfo {
        id: "W007",
        name: "nonblocking-serve-handlers",
        summary: "no blocking file/subprocess calls (File::/OpenOptions, \
                  fsync/sync_all/sync_data, .execute(), std::fs::, process::Command) \
                  in crates/serve non-test code — session handlers route work to the \
                  shared executor; the CLI binds and unlinks the socket path and owns \
                  files and signals, serve accepts and serves connections",
    },
    RuleInfo {
        id: "W008",
        name: "wait-free-telemetry",
        summary: "telemetry record paths (crates/telemetry non-test code outside \
                  registry.rs) never lock, allocate, or block — a recorder is a bounded \
                  sequence of atomic ops; and the fixed atomic-bucket-array idiom \
                  ([AtomicU64; N]) stays in crates/telemetry — instrument through its \
                  handles, don't re-open metric storage",
    },
    RuleInfo {
        id: "L001",
        name: "malformed-allow",
        summary: "a `// lint: allow(...)` annotation must name a known rule and carry \
                  a non-empty reason",
    },
];

/// True if `id` is a known rule ID.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Hot modules for W003 (panic facet): panics here abort diagnosis mid-run
/// or tear durability guarantees.
const HOT_MODULES: &[&str] = &[
    "crates/core/src/kernels.rs",
    "crates/core/src/provenance.rs",
    "crates/engine/src/executor.rs",
    "crates/store/src/frame.rs",
    "crates/store/src/wal.rs",
];

/// Hot modules for W003's index facet. `kernels.rs` is deliberately absent:
/// its autovectorization contract *requires* chunk-granularity indexing
/// (see the module docs there), and W001 keeps word loops from leaking out
/// of it.
const INDEX_HOT_MODULES: &[&str] = &[
    "crates/core/src/provenance.rs",
    "crates/engine/src/executor.rs",
    "crates/store/src/frame.rs",
    "crates/store/src/wal.rs",
];

/// Files allowed to contain word-granularity bit loops (W001).
const KERNEL_HOMES: &[&str] = &["crates/core/src/kernels.rs", "crates/store/src/crc32.rs"];

/// Files under W005's checked-cast contract: the WAL codec, where a
/// truncating cast silently corrupts a frame instead of erroring.
const WAL_CODEC: &[&str] = &[
    "crates/store/src/frame.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/crc32.rs",
];

/// An allow-annotation's coverage.
#[derive(Debug)]
struct Allow {
    rule: String,
    /// Covered lines, 0-based inclusive range.
    from: usize,
    to: usize,
}

/// Lints one file's source text. `rel_path` is the workspace-relative path
/// with `/` separators — several rules are scoped by path.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let scan = lex(source);
    let (allows, mut findings) = collect_allows(rel_path, &scan);
    rule_w001(rel_path, &scan, &mut findings);
    rule_w002(rel_path, &scan, &mut findings);
    rule_w003(rel_path, &scan, &mut findings);
    rule_w004(rel_path, &scan, &mut findings);
    rule_w005(rel_path, &scan, &mut findings);
    rule_w006(rel_path, &scan, &mut findings);
    rule_w007(rel_path, &scan, &mut findings);
    rule_w008(rel_path, &scan, &mut findings);
    findings.retain(|f| {
        f.rule == "L001"
            || !allows
                .iter()
                .any(|a| a.rule == f.rule && (a.from..=a.to).contains(&(f.line - 1)))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Parses every allow annotation (a `lint:`-prefixed comment). Malformed ones
/// (unknown rule, missing/empty reason) become L001 findings; well-formed
/// ones become [`Allow`] coverage ranges.
fn collect_allows(rel_path: &str, scan: &Scan) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    // Annotations on comment-only lines queue up for the next code line.
    let mut pending: Vec<(usize, String)> = Vec::new(); // (annotation line, rule)
    for (i, line) in scan.lines.iter().enumerate() {
        let mut here: Vec<String> = Vec::new();
        let mut rest = line.comment.as_str();
        while let Some(at) = rest.find("lint:") {
            rest = &rest[at + 5..];
            let trimmed = rest.trim_start();
            let Some(open) = trimmed.strip_prefix("allow(") else {
                if trimmed.starts_with("allow") {
                    findings.push(finding(
                        "L001",
                        rel_path,
                        i,
                        "malformed allow annotation: expected `allow(<rule>, reason = \"...\")`",
                    ));
                }
                continue;
            };
            // The closing paren, skipping any inside the quoted reason.
            let Some(close) = close_paren(open) else {
                findings.push(finding("L001", rel_path, i, "unterminated allow annotation"));
                continue;
            };
            let body = &open[..close];
            rest = &open[close + 1..];
            match parse_allow_body(body) {
                Ok(rule) => here.push(rule),
                Err(msg) => findings.push(finding("L001", rel_path, i, msg)),
            }
        }
        let has_code = !line.code.trim().is_empty();
        if has_code {
            for rule in here {
                allows.push(coverage(scan, i, rule));
            }
            for (_, rule) in pending.drain(..) {
                allows.push(coverage(scan, i, rule));
            }
        } else {
            for rule in here {
                pending.push((i, rule));
            }
        }
    }
    // Annotations at EOF with no following code line: cover nothing, but
    // they were still validated above.
    (allows, findings)
}

/// The byte offset of the `(`-matching `)` in `s` (which starts just past
/// the opening paren), skipping parens inside a quoted reason string.
fn close_paren(s: &str) -> Option<usize> {
    let mut in_quote = false;
    for (at, c) in s.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            ')' if !in_quote => return Some(at),
            _ => {}
        }
    }
    None
}

/// The coverage range of an allow attached to code line `i`: block-scoped
/// annotations cover `i`'s whole brace block (the block opened on `i` or
/// within the next nine lines, so a `fn` signature wrapped across several
/// parameter lines still reaches its own `{` — attach to a `fn` signature
/// to cover the function), line-scoped ones cover `i..=i+2`.
fn coverage(scan: &Scan, i: usize, rule: String) -> Allow {
    if let Some(stripped) = rule.strip_prefix("block:") {
        let base = scan.lines[i].depth_start;
        // Find the opener: the first of lines i..=i+9 that ends deeper than
        // the attachment point (a `fn f(…) {` signature, possibly wrapped).
        let opener = (i..scan.lines.len().min(i + 10)).find(|&k| scan.lines[k].depth_end > base);
        if let Some(k) = opener {
            let mut j = k;
            while j + 1 < scan.lines.len() && scan.lines[j].depth_end > base {
                j += 1;
            }
            return Allow { rule: stripped.to_string(), from: i, to: j };
        }
        // No block opened: degrade to line scope.
        return Allow { rule: stripped.to_string(), from: i, to: i + 2 };
    }
    Allow { rule, from: i, to: i + 2 }
}

/// Parses `W003, reason = "..."` (optionally with `scope = "block"`).
/// Returns the rule ID, prefixed with `block:` for block scope.
fn parse_allow_body(body: &str) -> Result<String, String> {
    let mut parts = body.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    if !known_rule(&rule) {
        return Err(format!("allow names unknown rule {rule:?}"));
    }
    let tail = parts.next().unwrap_or("").trim();
    let scope_block = tail.contains("scope = \"block\"") || tail.contains("scope=\"block\"");
    let reason_ok = ["reason = \"", "reason=\""].iter().any(|k| {
        tail.find(k)
            .map(|at| {
                let v = &tail[at + k.len()..];
                v.find('"').map(|q| !v[..q].trim().is_empty()).unwrap_or(false)
            })
            .unwrap_or(false)
    });
    if !reason_ok {
        return Err(format!(
            "allow({rule}) must carry a non-empty reason = \"...\""
        ));
    }
    Ok(if scope_block { format!("block:{rule}") } else { rule })
}

fn finding(rule: &'static str, path: &str, line0: usize, msg: impl Into<String>) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line: line0 + 1,
        message: msg.into(),
    }
}

/// Is the path test-ish (integration tests, examples, benches, fixtures)?
/// Rules that exempt test code skip these wholesale.
fn test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|c| matches!(c, "tests" | "examples" | "benches" | "fixtures"))
}

/// Paths allowed to print / exit: the CLI crate, bin targets, and test-ish
/// code.
fn print_allowed_path(rel: &str) -> bool {
    rel.starts_with("crates/cli/")
        || rel.ends_with("/main.rs")
        || rel == "main.rs"
        || rel.split('/').any(|c| c == "bin")
        || test_path(rel)
}

/// W001 — word loops stay in the kernel homes. Fires when a 3-line window
/// of non-test code combines an iteration construct, a word-combining op
/// (`count_ones(` / `&=` / `|=`), and a word-ish operand signal.
fn rule_w001(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if KERNEL_HOMES.contains(&rel) || test_path(rel) {
        return;
    }
    const ITER: &[&str] = &[
        "for ", "while ", ".iter(", ".iter_mut(", ".map(", ".zip(", ".fold(", ".chunks",
        ".windows(",
    ];
    const BITOP: &[&str] = &["count_ones(", "&=", "|="];
    const WORDISH: &[&str] = &["u64", "word", "bit"];
    let lines = &scan.lines;
    for i in 0..lines.len() {
        if lines[i].is_test {
            continue;
        }
        let Some(op) = BITOP.iter().find(|t| lines[i].code.contains(*t)) else {
            continue;
        };
        let lo = i.saturating_sub(2);
        let window: Vec<&str> = (lo..=i)
            .filter(|&j| !lines[j].is_test)
            .map(|j| lines[j].code.as_str())
            .collect();
        let has = |toks: &[&str]| toks.iter().any(|t| window.iter().any(|w| w.contains(t)));
        if has(ITER) && has(WORDISH) {
            out.push(finding(
                "W001",
                rel,
                i,
                format!(
                    "word-granularity bit loop ({op:?} under iteration) outside the kernel \
                     homes — compose crates/core/src/kernels.rs instead"
                ),
            ));
        }
    }
}

/// W002 — no blocking calls while a lock guard is live. Finds `let g =
/// ….read();` / `….write();` bindings and scans the guard's block (up to a
/// `drop(g)`) for execute/fsync/file-open tokens.
fn rule_w002(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if test_path(rel) {
        return;
    }
    const FORBIDDEN: &[&str] = &[
        ".execute(",
        "fsync",
        "sync_all",
        "sync_data",
        "File::",
        "OpenOptions",
    ];
    let lines = &scan.lines;
    for i in 0..lines.len() {
        let code = &lines[i].code;
        if lines[i].is_test || !code.contains("let ") {
            continue;
        }
        let guard_kind = if code.contains(".read()") {
            ".read()"
        } else if code.contains(".write()") {
            ".write()"
        } else {
            continue;
        };
        let name = binding_name(code);
        let base = lines[i].depth_start;
        // The guard lives from its binding line until the enclosing block
        // closes (first line whose end depth drops below the binding's
        // start depth) or an explicit drop(guard).
        let mut j = i;
        loop {
            let line = &lines[j];
            // The binding line itself can contain a forbidden call
            // (`let g = x.write(); g.execute(…);` squeezed on one line).
            if let Some(tok) = FORBIDDEN.iter().find(|t| line.code.contains(*t)) {
                out.push(finding(
                    "W002",
                    rel,
                    j,
                    format!(
                        "{tok} while the {guard_kind} guard from line {} is live — \
                         narrow the guard scope or drop() it first",
                        i + 1
                    ),
                ));
            }
            if let Some(n) = &name {
                if j > i && line.code.contains(&format!("drop({n})")) {
                    break;
                }
            }
            if j > i && line.depth_end < base {
                break;
            }
            j += 1;
            if j >= lines.len() {
                break;
            }
        }
    }
}

fn binding_name(code: &str) -> Option<String> {
    let after = code.split("let ").nth(1)?;
    let after = after.trim_start().trim_start_matches("mut ").trim_start();
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() { None } else { Some(name) }
}

/// W003 — panic-freedom in the declared hot modules.
fn rule_w003(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    let panics_apply = HOT_MODULES.contains(&rel);
    let index_applies = INDEX_HOT_MODULES.contains(&rel);
    if !panics_apply && !index_applies {
        return;
    }
    const PANIC: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for (i, line) in scan.lines.iter().enumerate() {
        if line.is_test || line.code.contains("debug_assert") {
            continue;
        }
        if panics_apply {
            if let Some(tok) = PANIC.iter().find(|t| line.code.contains(*t)) {
                out.push(finding(
                    "W003",
                    rel,
                    i,
                    format!("{tok} in hot module — return an error or justify with an allow"),
                ));
            }
        }
        if index_applies {
            if let Some(expr) = non_literal_index(&line.code) {
                out.push(finding(
                    "W003",
                    rel,
                    i,
                    format!(
                        "possibly-panicking slice index `[{expr}]` in hot module — use \
                         get()/iterators or justify with an allow"
                    ),
                ));
            }
        }
    }
}

/// Finds the first non-literal index expression `recv[…]` on a masked code
/// line. Pure integer-literal indices (`c[0]`) are exempt: they are the
/// kernel accumulator idiom and either always or never panic. Keyword
/// receivers (`mut [u64]`, `in […]`) and macro/attribute brackets are not
/// indexing.
fn non_literal_index(code: &str) -> Option<String> {
    const KEYWORDS: &[&str] = &[
        "mut", "ref", "in", "as", "return", "match", "if", "else", "move", "dyn", "impl",
        "where", "box",
    ];
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] != '[' {
            i += 1;
            continue;
        }
        // The receiver: last non-space char before the bracket.
        let mut p = i;
        while p > 0 && chars[p - 1] == ' ' {
            p -= 1;
        }
        let prev = if p > 0 { chars[p - 1] } else { ' ' };
        let is_recv = prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']';
        if !is_recv {
            i += 1;
            continue;
        }
        // Identifier ending at prev — skip keywords posing as receivers.
        let mut s = p;
        while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
            s -= 1;
        }
        let ident: String = chars[s..p].iter().collect();
        if KEYWORDS.contains(&ident.as_str()) {
            i += 1;
            continue;
        }
        // A lifetime (`&'a [u8]`) is a slice type, not an indexing receiver.
        if s > 0 && chars[s - 1] == '\'' {
            i += 1;
            continue;
        }
        // Matching close bracket (nesting-aware).
        let mut depth = 1;
        let mut j = i + 1;
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let inner: String = chars[i + 1..j.saturating_sub(1)].iter().collect();
        let trimmed = inner.trim();
        let literal = !trimmed.is_empty()
            && trimmed.chars().all(|c| c.is_ascii_digit() || c == '_');
        if !literal {
            return Some(trimmed.to_string());
        }
        i = j;
    }
    None
}

/// W004 — every `Ordering::Relaxed` carries a nearby justification comment
/// mentioning "relaxed" (same line or up to 3 lines above).
fn rule_w004(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if test_path(rel) {
        return;
    }
    for (i, line) in scan.lines.iter().enumerate() {
        if line.is_test || !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        let lo = i.saturating_sub(3);
        let justified = (lo..=i)
            .any(|j| scan.lines[j].comment.to_ascii_lowercase().contains("relaxed"));
        if !justified {
            out.push(finding(
                "W004",
                rel,
                i,
                "Ordering::Relaxed without a justification comment (mention \"relaxed\" \
                 within 3 lines above, or allow-annotate)",
            ));
        }
    }
}

/// W005 — no `as u32` / `as u64` in the WAL codec files.
fn rule_w005(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if !WAL_CODEC.contains(&rel) {
        return;
    }
    for (i, line) in scan.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        for cast in ["as u32", "as u64"] {
            if let Some(at) = line.code.find(cast) {
                // Token boundaries: ` as u32` not `has u32x`.
                let before_ok = at == 0
                    || !line.code[..at]
                        .chars()
                        .next_back()
                        .map(|c| c.is_alphanumeric() || c == '_')
                        .unwrap_or(false);
                let after = &line.code[at + cast.len()..];
                let after_ok = after
                    .chars()
                    .next()
                    .map(|c| !c.is_alphanumeric() && c != '_')
                    .unwrap_or(true);
                if before_ok && after_ok {
                    out.push(finding(
                        "W005",
                        rel,
                        i,
                        format!(
                            "truncatable `{cast}` in the WAL codec — use try_into/try_from \
                             so an oversized value errors instead of corrupting a frame"
                        ),
                    ));
                }
            }
        }
    }
}

/// W007 — session handlers in `crates/serve` never block on files or
/// subprocesses. A handler thread that opens/fsyncs a file or shells out
/// stalls every session multiplexed on the daemon; durable I/O belongs to
/// the executor (whose own threads the factory configured). The CLI front
/// end binds and unlinks the socket path and owns files and signal
/// handling; serve accepts and serves connections. Scoped by directory,
/// not a file list, so new serve modules are covered by default.
fn rule_w007(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if !rel.starts_with("crates/serve/") || test_path(rel) {
        return;
    }
    const FORBIDDEN: &[&str] = &[
        ".execute(",
        "fsync",
        "sync_all",
        "sync_data",
        "File::",
        "OpenOptions",
        "std::fs::",
        "process::Command",
        "Command::new(",
    ];
    for (i, line) in scan.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        if let Some(tok) = FORBIDDEN.iter().find(|t| line.code.contains(*t)) {
            out.push(finding(
                "W007",
                rel,
                i,
                format!(
                    "{tok} on a serve session-handler path — handlers must not block \
                     on files or subprocesses; route the work through the shared \
                     executor or the injected factory (the CLI binds and unlinks the \
                     socket path and owns files and signals; serve accepts and serves \
                     connections)"
                ),
            ));
        }
    }
}

/// W008 — telemetry record paths stay wait-free. Two facets. Inside
/// `crates/telemetry` (every non-test module except `registry.rs`, whose
/// registration/render side runs once per site and once per scrape, never
/// per sample): no locking, allocation, or blocking calls — a recorder
/// must be a bounded sequence of atomic ops, or a stalled recorder stalls
/// the very path it was meant to observe. Outside `crates/telemetry`: the
/// fixed atomic-bucket-array storage idiom (`[AtomicU64; N]`) is not
/// re-opened — instrument through the telemetry handles so every metric
/// shows up in one registry and one exposition.
fn rule_w008(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if test_path(rel) {
        return;
    }
    let record_path = rel.starts_with("crates/telemetry/src/")
        && rel != "crates/telemetry/src/registry.rs";
    if record_path {
        const FORBIDDEN: &[&str] = &[
            ".lock()",
            "Mutex",
            "RwLock",
            "Condvar",
            "Box::new(",
            "Vec::new(",
            "vec!",
            "format!",
            ".to_string(",
            "String::",
            "File::",
            "OpenOptions",
            "std::fs::",
            "process::Command",
            "thread::sleep",
        ];
        for (i, line) in scan.lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            if let Some(tok) = FORBIDDEN.iter().find(|t| line.code.contains(*t)) {
                out.push(finding(
                    "W008",
                    rel,
                    i,
                    format!(
                        "{tok} on a telemetry record path — recorders are wait-free \
                         (bounded atomic ops only); locking, allocation, and blocking \
                         belong to registry.rs's registration/render side"
                    ),
                ));
            }
        }
    } else if !rel.starts_with("crates/telemetry/") {
        for (i, line) in scan.lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            if line.code.contains("[AtomicU64;") {
                out.push(finding(
                    "W008",
                    rel,
                    i,
                    "fixed atomic-bucket-array metric storage outside crates/telemetry \
                     — register a telemetry Counter/Gauge/Histogram instead so the \
                     metric reaches the shared exposition",
                ));
            }
        }
    }
}

/// W006 — printing and process exits stay in the CLI, bins, and tests.
fn rule_w006(rel: &str, scan: &Scan, out: &mut Vec<Finding>) {
    if print_allowed_path(rel) {
        return;
    }
    // Longest-first: `eprintln!` contains `println!` as a substring, so the
    // more specific token must win the per-line match.
    const TOKENS: &[&str] = &[
        "eprintln!",
        "println!",
        "eprint!",
        "print!",
        "dbg!",
        "process::exit",
    ];
    for (i, line) in scan.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        if let Some(tok) = TOKENS.iter().find(|t| line.code.contains(*t)) {
            out.push(finding(
                "W006",
                rel,
                i,
                format!("{tok} outside crates/cli and bin targets — return data, don't print"),
            ));
        }
    }
}
