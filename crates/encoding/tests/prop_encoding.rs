//! Property tests for the encoding crate: tokenizer totality, the
//! streaming tokenizer against its char-by-char reference under any
//! chunking, word2vec determinism and shape guarantees.

use encoding::tokenizer::{plan_sentences, tokenize_statement, Tokenizer};
use encoding::word2vec::{train, W2vConfig};
use proptest::prelude::*;
use std::fmt::Write as _;

/// The tokenizer as it was before it streamed: whole statement in
/// hand, `peek` for the lookahead, a `String` per token. The reference
/// the state machine must reproduce token for token.
fn reference_tokenize(statement: &str) -> Vec<String> {
    fn normalize_word(word: &str) -> String {
        let trimmed = word.strip_prefix('-').unwrap_or(word);
        if !trimmed.is_empty()
            && trimmed.chars().all(|c| c.is_ascii_digit() || c == '.')
            && trimmed.chars().any(|c| c.is_ascii_digit())
        {
            let magnitude = trimmed.split('.').next().map(str::len).unwrap_or(1).min(12);
            return format!("<num:{magnitude}>");
        }
        word.to_lowercase()
    }
    let mut tokens = Vec::new();
    let mut chars = statement.chars().peekable();
    let mut word = String::new();
    let flush = |word: &mut String, tokens: &mut Vec<String>| {
        if !word.is_empty() {
            tokens.push(normalize_word(word));
            word.clear();
        }
    };
    while let Some(c) = chars.next() {
        match c {
            c if c.is_alphanumeric() || c == '_' || c == '#' => word.push(c),
            '.' => {
                let numeric_context = word.chars().all(|w| w.is_ascii_digit())
                    && !word.is_empty()
                    && chars.peek().is_some_and(|n| n.is_ascii_digit());
                if numeric_context {
                    word.push('.');
                } else {
                    flush(&mut word, &mut tokens);
                    tokens.push(".".to_string());
                }
            }
            '<' | '>' | '=' | '!' | '&' | '|' => {
                flush(&mut word, &mut tokens);
                let mut op = c.to_string();
                if let Some(&next) = chars.peek() {
                    let pair = format!("{c}{next}");
                    if matches!(pair.as_str(), "<=" | ">=" | "<>" | "!=" | "&&" | "||") {
                        op = pair;
                        chars.next();
                    }
                }
                tokens.push(op);
            }
            '(' | ')' | '[' | ']' | ',' | ':' | '%' => {
                flush(&mut word, &mut tokens);
                tokens.push(c.to_string());
            }
            '\'' => {
                flush(&mut word, &mut tokens);
                let mut s = String::new();
                for sc in chars.by_ref() {
                    if sc == '\'' {
                        break;
                    }
                    s.push(sc);
                }
                tokens.push(format!("'{s}'"));
            }
            '-' => word.push(c),
            _ => flush(&mut word, &mut tokens),
        }
    }
    flush(&mut word, &mut tokens);
    tokens
}

/// Streams `s` through a [`Tokenizer`], cut at `cuts` (byte offsets,
/// each moved back to a char boundary).
fn tokenize_chunked(s: &str, cuts: &[usize]) -> Vec<String> {
    let mut cuts: Vec<usize> = cuts
        .iter()
        .map(|&c| (0..=c.min(s.len())).rev().find(|&i| s.is_char_boundary(i)).unwrap())
        .collect();
    cuts.push(s.len());
    cuts.sort_unstable();
    let mut tokens = Vec::new();
    let mut tokenizer = Tokenizer::new(String::new(), |t: &str| tokens.push(t.to_string()));
    let mut from = 0;
    for to in cuts {
        tokenizer.write_str(&s[from..to]).unwrap();
        from = to;
    }
    tokenizer.finish();
    tokens
}

/// The lookahead cases, cut at every pair of positions: a pending `.`
/// or operator half, an open quote and a word being lower-cased must
/// all survive a chunk boundary (and the end of the statement).
#[test]
fn lookahead_cases_tokenize_alike_under_every_cut() {
    for s in [
        "8.2.5",
        "9.",
        "a.9",
        "9.a",
        "-4.5",
        "t1.id",
        "x <",
        "x &",
        "a<=b<>c!=d&&e||f=>g",
        "'open",
        "it's 'a b' ''",
        "Filter (T.Code = 'US')",
        "ÉCOLE Σ ΟΔΟΣ ς",
        "İ.İ",
        "٣.٣ 3.٣",
        "a\u{a0}b 中.9",
        "1234567890123.5 -007 --5 - .5 5..6",
        "FileScan title[id,kind_id] PushedFilters: [(t.id < 7)]",
    ] {
        let want = reference_tokenize(s);
        assert_eq!(tokenize_statement(s), want, "{s:?} whole");
        for a in 0..=s.len() {
            for b in a..=s.len() {
                assert_eq!(tokenize_chunked(s, &[a, b]), want, "{s:?} cut at {a}, {b}");
            }
        }
    }
}

/// Every node of `workloads::querygen` candidate plans: the statement
/// is the renderer's output collected, and streaming the renderer into
/// the tokenizer gives the reference's tokens for that statement.
#[test]
fn planner_statements_stream_to_the_reference_tokens() {
    use sparksim::plan::planner::PlannerOptions;
    use sparksim::{ClusterConfig, Engine, SimulatorConfig};
    let data = workloads::imdb::generate(&workloads::imdb::ImdbConfig { title_rows: 200, seed: 9 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let queries = workloads::querygen::generate_queries(
        &data.graph,
        &workloads::querygen::QueryGenConfig::default(),
        40,
        &mut rng,
    );
    let mut nodes = 0;
    for sql in &queries {
        for plan in engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
            for (id, sentence) in plan_sentences(&plan).iter().enumerate() {
                let mut written = String::new();
                plan.write_statement(id, &mut written).unwrap();
                assert_eq!(plan.statement(id), written);
                assert_eq!(*sentence, reference_tokenize(&written), "{written:?}");
                nodes += 1;
            }
        }
    }
    assert!(nodes > 500, "only {nodes} nodes checked");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The tokenizer must be total: any string (including garbage) yields
    /// a token list without panicking, and never yields empty tokens.
    #[test]
    fn tokenizer_is_total_and_produces_nonempty_tokens(s in ".{0,120}") {
        let tokens = tokenize_statement(&s);
        for t in &tokens {
            prop_assert!(!t.is_empty(), "empty token from {s:?}");
        }
    }

    /// Whole or in any chunks, the state machine yields the reference's
    /// tokens: ASCII noise, and an alphabet dense in the characters the
    /// tokenizer looks ahead on, upper case and non-ASCII included.
    #[test]
    fn tokenizer_streams_to_the_reference_tokens(
        noise in ".{0,120}",
        dense in "[a-cXYZ0-9.'<>=!&|()[,:% _#ÉΣςßİ中٣\u{a0}\t-]{0,80}",
        cuts in prop::collection::vec(0usize..240, 0..8),
    ) {
        for s in [noise, dense] {
            let want = reference_tokenize(&s);
            prop_assert_eq!(&tokenize_statement(&s), &want, "{:?} whole", s);
            prop_assert_eq!(&tokenize_chunked(&s, &cuts), &want, "{:?} cut at {:?}", s, cuts);
        }
    }

    /// Numbers with the same digit count collapse to the same bucket.
    #[test]
    fn numeric_bucketing_by_magnitude(a in 10u64..99, b in 10u64..99) {
        let ta = tokenize_statement(&format!("x < {a}"));
        let tb = tokenize_statement(&format!("x < {b}"));
        prop_assert_eq!(ta.last(), tb.last());
    }

    /// Every trained word vector has the configured dimension and is
    /// finite; embed_mean preserves the dimension.
    #[test]
    fn word2vec_shapes_and_finiteness(
        sentences in prop::collection::vec(
            prop::collection::vec("[a-e]{1,4}", 1..8),
            1..12,
        ),
        dim in 2usize..16,
    ) {
        let model = train(&sentences, &W2vConfig {
            dim,
            epochs: 1 });
        for sentence in &sentences {
            for word in sentence {
                let v = model.vector(word).expect("trained word in vocab");
                prop_assert_eq!(v.len(), dim);
                prop_assert!(v.iter().all(|x| x.is_finite()));
            }
        }
        let mean = model.embed_mean(&sentences[0]);
        prop_assert_eq!(mean.len(), dim);
        prop_assert!(mean.iter().all(|x| x.is_finite()));
    }

    /// Similarity is symmetric and bounded.
    #[test]
    fn word2vec_similarity_symmetric(
        sentences in prop::collection::vec(
            prop::collection::vec("[a-c]{1,3}", 2..6),
            2..8,
        ),
    ) {
        let model = train(&sentences, &W2vConfig { dim: 8, epochs: 1 });
        let words: Vec<&String> = sentences.iter().flatten().collect();
        let (a, b) = (words[0], words[words.len() - 1]);
        let ab = model.similarity(a, b).unwrap();
        let ba = model.similarity(b, a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&ab));
    }
}
