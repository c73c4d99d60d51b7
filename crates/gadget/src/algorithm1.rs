//! Gadget assembly — Algorithm 1 (Step I.4).
//!
//! Turns a two-way slice into an ordered code gadget. For *classic* gadgets
//! the sliced statements are simply stacked in line order per function
//! (Definition 5). For *path-sensitive* gadgets the control ranges crossed by
//! the slice are selected, ranges bound to the same `if`-chain or `switch`
//! group are kept together, and the ranges' opening/closing delimiters are
//! inserted so no two control scopes overlap vaguely (Definition 7).

use crate::slice::{two_way_slice, SliceConfig};
use crate::special::SpecialToken;
use crate::types::{CodeGadget, GadgetKind, GadgetLine, LineOrigin};
use sevuldet_analysis::ranges::{control_ranges, RangeKind};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_lang::ast::Program;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Builds one gadget from one special token.
pub fn build_gadget(
    program: &Program,
    analysis: &ProgramAnalysis,
    token: &SpecialToken,
    kind: GadgetKind,
    slice_cfg: &SliceConfig,
) -> CodeGadget {
    let slice = two_way_slice(analysis, &token.func, token.node, slice_cfg);
    let _t = sevuldet_trace::span!("gadget.assemble");

    // Group slice nodes per function; one gadget line per source line
    // (a `for` header and its step share a line — the header wins).
    let mut per_func: HashMap<String, BTreeMap<u32, GadgetLine>> = HashMap::new();
    for (func, node_id) in &slice.nodes {
        let Some(pdg) = analysis.pdg(func) else {
            continue;
        };
        let node = pdg.cfg.node(*node_id);
        if node.tokens.is_empty() {
            continue;
        }
        per_func
            .entry(func.clone())
            .or_default()
            .entry(node.line)
            .or_insert_with(|| GadgetLine {
                func: func.clone(),
                line: node.line,
                tokens: node.tokens.clone(),
                origin: LineOrigin::Stmt,
            });
    }

    if kind == GadgetKind::PathSensitive {
        insert_control_ranges(program, analysis, &mut per_func);
    }

    let order = function_order(analysis, &token.func, per_func.keys().cloned().collect());
    let mut lines = Vec::new();
    for func in order {
        if let Some(m) = per_func.remove(&func) {
            lines.extend(m.into_values());
        }
    }

    CodeGadget {
        kind,
        category: token.category,
        key_func: token.func.clone(),
        key_line: token.line,
        key_name: token.name.clone(),
        lines,
    }
}

/// Generates gadgets for every special token of a program.
pub fn generate_all(
    program: &Program,
    analysis: &ProgramAnalysis,
    tokens: &[SpecialToken],
    kind: GadgetKind,
    slice_cfg: &SliceConfig,
) -> Vec<CodeGadget> {
    tokens
        .iter()
        .map(|t| build_gadget(program, analysis, t, kind, slice_cfg))
        .collect()
}

/// The path-sensitive step: select every control range that contains a slice
/// statement, pull in the ranges bound to the same group, and insert their
/// delimiters.
fn insert_control_ranges(
    program: &Program,
    analysis: &ProgramAnalysis,
    per_func: &mut HashMap<String, BTreeMap<u32, GadgetLine>>,
) {
    let funcs: Vec<String> = per_func.keys().cloned().collect();
    for fname in funcs {
        let Some(f) = program.function(&fname) else {
            continue;
        };
        let Some(pdg) = analysis.pdg(&fname) else {
            continue;
        };
        let ranges = control_ranges(f);
        let lines = per_func.get(&fname).expect("key from map");
        let stmt_lines: HashSet<u32> = lines
            .values()
            .filter(|l| l.origin == LineOrigin::Stmt)
            .map(|l| l.line)
            .collect();

        // Ranges containing a slice statement; then close over groups.
        let mut included_groups: HashSet<u32> = HashSet::new();
        for r in &ranges {
            if stmt_lines.iter().any(|&l| r.contains(l)) {
                included_groups.insert(r.group);
            }
        }
        let included: Vec<_> = ranges
            .iter()
            .filter(|r| included_groups.contains(&r.group))
            .collect();

        let entry_tokens_on = |line: u32| -> Option<Vec<String>> {
            pdg.cfg
                .node_ids()
                .find(|id| pdg.cfg.node(*id).line == line && !pdg.cfg.node(*id).tokens.is_empty())
                .map(|id| pdg.cfg.node(id).tokens.clone())
        };

        let map = per_func.get_mut(&fname).expect("key from map");
        // Opening delimiters first: a range's header (e.g. `} else {`) beats
        // another range's bare closing `}` on the same line.
        for r in &included {
            let occupied_by_stmt = map
                .get(&r.header_line)
                .map(|l| l.origin == LineOrigin::Stmt)
                .unwrap_or(false);
            if !occupied_by_stmt {
                let tokens = entry_tokens_on(r.header_line).unwrap_or_else(|| match r.kind {
                    RangeKind::Else => vec!["}".into(), "else".into(), "{".into()],
                    RangeKind::Case => vec!["case".into(), ":".into()],
                    RangeKind::DoWhile => vec!["do".into(), "{".into()],
                    _ => vec!["{".into()],
                });
                map.insert(
                    r.header_line,
                    GadgetLine {
                        func: fname.clone(),
                        line: r.header_line,
                        tokens,
                        origin: LineOrigin::RangeOpen,
                    },
                );
            }
        }
        // Closing delimiters fill remaining gaps (cases have no brace of
        // their own; the switch's closing brace delimits them).
        for r in &included {
            if r.kind != RangeKind::Case && r.end_line > r.header_line {
                map.entry(r.end_line).or_insert_with(|| GadgetLine {
                    func: fname.clone(),
                    line: r.end_line,
                    tokens: vec!["}".into()],
                    origin: LineOrigin::RangeClose,
                });
            }
        }
    }
}

/// Orders the functions of a gadget: callers before callees (Algorithm 1
/// lines 32-36), starting from the key function's component; ties broken by
/// name for determinism.
fn function_order(
    analysis: &ProgramAnalysis,
    key_func: &str,
    involved: HashSet<String>,
) -> Vec<String> {
    // Kahn's algorithm on the caller→callee subgraph.
    let mut indeg: HashMap<&str, usize> = involved.iter().map(|f| (f.as_str(), 0)).collect();
    let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
    for site in analysis.callgraph.sites() {
        if involved.contains(&site.caller)
            && involved.contains(&site.callee)
            && site.caller != site.callee
        {
            let dests = edges.entry(site.caller.as_str()).or_default();
            if !dests.contains(&site.callee.as_str()) {
                dests.push(site.callee.as_str());
                *indeg.get_mut(site.callee.as_str()).expect("involved") += 1;
            }
        }
    }
    let mut ready: Vec<&str> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(f, _)| *f)
        .collect();
    ready.sort_unstable();
    let mut out = Vec::new();
    while let Some(f) = ready.pop() {
        out.push(f.to_string());
        if let Some(dests) = edges.get(f) {
            for d in dests.clone() {
                let e = indeg.get_mut(d).expect("involved");
                *e -= 1;
                if *e == 0 {
                    ready.push(d);
                    ready.sort_unstable();
                }
            }
        }
    }
    // Cycles (mutual recursion): append leftovers deterministically.
    if out.len() < involved.len() {
        let mut rest: Vec<String> = involved.into_iter().filter(|f| !out.contains(f)).collect();
        rest.sort();
        out.extend(rest);
    }
    // The key function's lines matter most; keep stable order but make sure
    // it is present even if it had no slice lines (degenerate).
    if !out.iter().any(|f| f == key_func) {
        out.push(key_func.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::find_special_tokens;
    use crate::types::Category;
    use sevuldet_lang::parse;

    fn gadget_for(src: &str, pick: impl Fn(&SpecialToken) -> bool, kind: GadgetKind) -> CodeGadget {
        let p = parse(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let toks = find_special_tokens(&p, &a);
        let t = toks.iter().find(|t| pick(t)).expect("special token");
        build_gadget(&p, &a, t, kind, &SliceConfig::default())
    }

    /// The motivating example (Fig. 1): a guarded strncpy (safe) and an
    /// unguarded strncpy after the same guard (vulnerable) must yield the
    /// SAME classic gadget text but DIFFERENT path-sensitive gadget text.
    #[test]
    fn fig1_classic_identical_path_sensitive_distinct() {
        let safe = r#"void f(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        strncpy(dest, data, n);
    }
}"#;
        let vuln = r#"void f(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;
        let is_strncpy = |t: &SpecialToken| t.category == Category::Fc && t.name == "strncpy";

        let cg_safe = gadget_for(safe, is_strncpy, GadgetKind::Classic);
        let cg_vuln = gadget_for(vuln, is_strncpy, GadgetKind::Classic);
        // Compare statement text streams, dropping lines unique to one slice
        // (the `puts` is not dependent on anything strncpy touches).
        let text = |g: &CodeGadget| {
            g.lines
                .iter()
                .map(|l| l.tokens.join(" "))
                .filter(|t| !t.contains("puts"))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            text(&cg_safe),
            text(&cg_vuln),
            "classic gadgets are indistinguishable"
        );

        let ps_safe = gadget_for(safe, is_strncpy, GadgetKind::PathSensitive);
        let ps_vuln = gadget_for(vuln, is_strncpy, GadgetKind::PathSensitive);
        assert_ne!(
            text(&ps_safe),
            text(&ps_vuln),
            "path-sensitive gadgets must differ"
        );
        // The safe gadget has strncpy BEFORE the closing `}`, the vulnerable
        // one AFTER it.
        let pos = |g: &CodeGadget, needle: &str| {
            g.lines
                .iter()
                .position(|l| l.tokens.contains(&needle.to_string()))
                .unwrap()
        };
        let close_pos = |g: &CodeGadget| {
            g.lines
                .iter()
                .position(|l| l.origin == LineOrigin::RangeClose)
                .unwrap()
        };
        assert!(pos(&ps_safe, "strncpy") < close_pos(&ps_safe));
        assert!(pos(&ps_vuln, "strncpy") > close_pos(&ps_vuln));
    }

    #[test]
    fn else_chain_keeps_bound_delimiters() {
        // Fig. 3 shape: strncpy in the else arm; the if and else-if ranges
        // are bound into the gadget for logical integrity.
        let src = r#"void f(char *dest, char *data, int n) {
    if (n < 0) {
        n = 0;
    } else if (n > 16) {
        n = 16;
    } else {
        strncpy(dest, data, n);
    }
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Fc && t.name == "strncpy",
            GadgetKind::PathSensitive,
        );
        let text = g.to_text();
        assert!(text.contains("if ( n < 0 ) {"));
        assert!(text.contains("} else if ( n > 16 ) {"));
        assert!(text.contains("} else {"));
        assert!(text.ends_with("}"), "closing delimiter retained: {text}");
    }

    #[test]
    fn classic_gadget_has_no_delimiters() {
        let src = r#"void f(char *dest, char *data, int n) {
    if (n < 16) {
        strncpy(dest, data, n);
    }
}"#;
        let g = gadget_for(src, |t| t.category == Category::Fc, GadgetKind::Classic);
        assert!(g.lines.iter().all(|l| l.origin == LineOrigin::Stmt));
    }

    #[test]
    fn interprocedural_gadget_orders_caller_first() {
        let src = r#"void sink(char *d, char *s, int n) {
    memcpy(d, s, n);
}
void top(char *d, char *s) {
    int n = strlen(s);
    sink(d, s, n);
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Fc && t.name == "memcpy",
            GadgetKind::PathSensitive,
        );
        let funcs: Vec<&str> = g.lines.iter().map(|l| l.func.as_str()).collect();
        let first_top = funcs.iter().position(|f| *f == "top").unwrap();
        let first_sink = funcs.iter().position(|f| *f == "sink").unwrap();
        assert!(first_top < first_sink, "caller lines precede callee lines");
    }

    #[test]
    fn loop_range_delimits_gadget() {
        let src = r#"void f(int n) {
    int total = 0;
    while (n > 0) {
        total = total + n;
        n--;
    }
    g(total);
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Ae && t.name == "total",
            GadgetKind::PathSensitive,
        );
        let text = g.to_text();
        assert!(text.contains("while ( n > 0 ) {"));
        assert!(
            g.lines.iter().any(|l| l.origin == LineOrigin::RangeClose),
            "loop close delimiter present: {text}"
        );
    }

    #[test]
    fn gadget_lines_sorted_by_line_within_function() {
        let src = r#"void f(char *dest, char *data, int n) {
    int m = n + 1;
    if (m < 16) {
        strncpy(dest, data, m);
    }
}"#;
        let g = gadget_for(src, |t| t.name == "strncpy", GadgetKind::PathSensitive);
        let lines: Vec<u32> = g.lines.iter().map(|l| l.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
