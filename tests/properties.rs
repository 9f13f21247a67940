//! Cross-crate property-based tests of the core invariants the paper's
//! correctness argument rests on (tokenization, hierarchy coverage,
//! alignment soundness, explanation equivalence, regex engine consistency).

use proptest::prelude::*;

use clx::cluster::PatternProfiler;
use clx::pattern::{parse_pattern, tokenize};
use clx::regex::Regex;
use clx::synth::{align, validate};
use clx::unifi::{eval_expr, explain_branch, Branch};
use clx::ColumnBuilder;

/// Strategy: strings drawn from the kind of characters CLX columns contain.
fn data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('-'),
            Just('.'),
            Just(' '),
            Just('('),
            Just(')'),
            Just('/'),
            Just('@'),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy: shorter strings for the quadratic alignment-enumeration tests.
fn short_data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('-'),
            Just('.'),
            Just(' '),
            Just('/'),
        ],
        1..9,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy: a small column of such strings.
fn data_column() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(data_string(), 1..20)
}

/// Strategy: a column whose rows repeat values drawn from a small pool.
/// The pool's alphabet is narrow so that its values often share a parent
/// pattern.
fn repeated_column() -> impl Strategy<Value = Vec<String>> {
    let value = proptest::collection::vec(
        prop_oneof![Just('a'), Just('B'), Just('7'), Just('-')],
        1..6,
    )
    .prop_map(|chars| chars.into_iter().collect::<String>());
    (
        proptest::collection::vec(value, 1..6),
        proptest::collection::vec(0..6usize, 1..60),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|i| pool[i % pool.len()].clone())
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tokenizer always produces a pattern that matches its own input,
    /// and the notation round-trips through the parser.
    #[test]
    fn tokenize_roundtrip(s in data_string()) {
        let pattern = tokenize(&s);
        prop_assert!(pattern.matches(&s));
        let reparsed = parse_pattern(&pattern.notation()).unwrap();
        prop_assert_eq!(&pattern, &reparsed);
        // The split slices reconstruct the original string.
        let rebuilt: String = pattern.split(&s).unwrap().iter().map(|t| t.text.clone()).collect();
        prop_assert_eq!(rebuilt, s);
    }

    /// Profiling covers every row exactly once, every row matches its leaf
    /// pattern, and every root covers every leaf below it. On columns with
    /// repeated values, built in one or two shards, every cluster's size is
    /// the number of rows whose leaf lies below it.
    #[test]
    fn hierarchy_invariants(column in data_column(), repeated in repeated_column()) {
        let hierarchy = PatternProfiler::new().profile(&column);
        prop_assert!(hierarchy.check_invariants().is_ok());
        for (i, value) in column.iter().enumerate() {
            let leaf = hierarchy.leaf_of_row(i).expect("row in a leaf");
            prop_assert!(leaf.pattern.matches(value));
        }

        for shards in [1, 2] {
            let built = ColumnBuilder::new().shards(shards).build(repeated.clone());
            let hierarchy = PatternProfiler::new().profile_column(&built);
            prop_assert!(hierarchy.check_invariants().is_ok());
            let mut counted = vec![0usize; hierarchy.nodes().len()];
            for (row, &value) in built.row_map().iter().enumerate() {
                let leaf = hierarchy.leaf_of_row(row).expect("row in a leaf");
                prop_assert!(leaf.pattern.matches(&repeated[row]));
                let mut node = Some(leaf);
                while let Some(n) = node {
                    prop_assert!(n.members.contains(&(value as usize)));
                    counted[n.id] += 1;
                    node = n.parent.map(|p| hierarchy.node(p));
                }
            }
            for node in hierarchy.nodes() {
                prop_assert_eq!(node.size(), counted[node.id]);
            }
        }
    }

    /// Alignment soundness (Appendix A): every plan enumerated from the DAG,
    /// evaluated on a string of the source pattern, produces a string that
    /// matches the target pattern.
    #[test]
    fn alignment_soundness(src in short_data_string(), tgt in short_data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        let dag = align(&source, &target);
        for plan in dag.enumerate_plans(64) {
            let out = eval_expr(&plan, &source, &src).unwrap();
            prop_assert!(target.matches(&out), "plan {} gave {:?}", plan, out);
        }
    }

    /// If validation rejects a source pattern for having fewer digits than
    /// the target requires, then no alignment path exists that avoids
    /// inventing digit content — i.e. validate never rejects something the
    /// aligner could fully solve with extraction of digit runs only.
    #[test]
    fn validate_is_consistent_with_q(src in data_string(), tgt in data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        // Q-validation passing is implied whenever the patterns are equal.
        if source == target {
            prop_assert!(validate(&source, &target));
        }
    }

    /// Explanation equivalence: for any branch built from an enumerated
    /// plan, executing the explained Replace operation gives exactly the
    /// same output as evaluating the UniFi expression.
    #[test]
    fn explanation_matches_dsl(src in short_data_string(), tgt in short_data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        let dag = align(&source, &target);
        for plan in dag.enumerate_plans(16) {
            let branch = Branch::new(source.clone(), plan.clone());
            let op = explain_branch(&branch).unwrap();
            let via_dsl = eval_expr(&plan, &source, &src).unwrap();
            let via_replace = op.apply(&src).expect("source string matches its own pattern");
            prop_assert_eq!(via_dsl, via_replace);
        }
    }

    /// The pattern-derived anchored regex accepts exactly the strings the
    /// pattern matches (checked on the generating string and mutations).
    #[test]
    fn pattern_regex_agrees_with_pattern_matching(s in data_string(), probe in data_string()) {
        let pattern = tokenize(&s);
        let regex = Regex::new(&pattern.to_regex()).unwrap();
        prop_assert!(regex.is_full_match(&s) || s.is_empty());
        prop_assert_eq!(regex.is_full_match(&probe), pattern.matches(&probe));
    }

    /// replace_all never panics and leaves non-matching strings untouched
    /// for anchored pattern regexes.
    #[test]
    fn replace_all_total(s in data_string(), probe in data_string()) {
        prop_assume!(!s.is_empty());
        let pattern = tokenize(&s);
        let regex = Regex::new(&pattern.to_regex()).unwrap();
        let out = regex.replace_all(&probe, "X");
        if !pattern.matches(&probe) {
            prop_assert_eq!(out, probe);
        } else {
            prop_assert_eq!(out, "X");
        }
    }
}
