//! Property tests for distances and token extraction.

use leaksig_textdist::{
    common_token_set, common_tokens, levenshtein, levenshtein_bounded, longest_common_substring,
    meet_tokens, normalized_levenshtein, string_tokens, SuffixAutomaton, TokenConfig,
};
use proptest::prelude::*;

fn hostlike() -> impl Strategy<Value = Vec<u8>> {
    "[a-z0-9.-]{0,40}".prop_map(|s| s.into_bytes())
}

fn is_sub(h: &[u8], n: &[u8]) -> bool {
    n.is_empty() || h.windows(n.len()).any(|w| w == n)
}

/// Brute-force invariant tokens: every substring of the first string that
/// is at least `min_len` long and occurs in every string, minus those
/// inside a longer such substring, longest first then lexicographic.
fn brute_force_tokens(strings: &[&[u8]], min_len: usize) -> Vec<Vec<u8>> {
    let first = strings[0];
    let mut common: Vec<Vec<u8>> = Vec::new();
    for i in 0..first.len() {
        for j in i + min_len..=first.len() {
            let s = &first[i..j];
            if strings.iter().all(|t| is_sub(t, s)) {
                common.push(s.to_vec());
            }
        }
    }
    let mut maximal: Vec<Vec<u8>> = common
        .iter()
        .filter(|s| !common.iter().any(|u| u.len() > s.len() && is_sub(u, s)))
        .cloned()
        .collect();
    maximal.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    maximal.dedup();
    maximal
}

proptest! {
    #[test]
    fn levenshtein_identity(a in hostlike()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_symmetry(a in hostlike(), b in hostlike()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn levenshtein_triangle(a in hostlike(), b in hostlike(), c in hostlike()) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={} > d(a,b)+d(b,c)={}", ac, ab + bc);
    }

    #[test]
    fn levenshtein_length_bounds(a in hostlike(), b in hostlike()) {
        let d = levenshtein(&a, &b);
        let diff = a.len().abs_diff(b.len());
        prop_assert!(d >= diff);
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn bounded_agrees_with_exact(a in hostlike(), b in hostlike(), bound in 0usize..50) {
        let exact = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, bound) {
            Some(d) => prop_assert_eq!(d, exact),
            None => prop_assert!(exact > bound, "bounded gave None but exact={} <= {}", exact, bound),
        }
    }

    #[test]
    fn normalized_in_unit_interval(a in hostlike(), b in hostlike()) {
        let d = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// The automaton accepts exactly the substrings.
    #[test]
    fn sam_substring_oracle(s in proptest::collection::vec(any::<u8>(), 0..60),
                            t in proptest::collection::vec(any::<u8>(), 0..12)) {
        let sam = SuffixAutomaton::new(&s);
        let brute = t.is_empty() || s.windows(t.len()).any(|w| w == &t[..]);
        prop_assert_eq!(sam.contains(&t), brute);
    }

    /// The LCS result is a substring of both inputs and no longer common
    /// substring exists (checked against brute force on small inputs).
    #[test]
    fn lcs_is_correct(a in proptest::collection::vec(b'a'..=b'd', 0..24),
                      b in proptest::collection::vec(b'a'..=b'd', 0..24)) {
        let got = longest_common_substring(&a, &b);
        let is_sub = |h: &[u8], n: &[u8]| n.is_empty() || h.windows(n.len()).any(|w| w == n);
        prop_assert!(is_sub(&a, &got));
        prop_assert!(is_sub(&b, &got));
        let mut best = 0usize;
        for i in 0..a.len() {
            for j in i..=a.len() {
                if is_sub(&b, &a[i..j]) {
                    best = best.max(j - i);
                }
            }
        }
        prop_assert_eq!(got.len(), best);
    }

    /// Every extracted token occurs in every input string, and tokens are
    /// pairwise non-contained.
    #[test]
    fn tokens_sound(strings in proptest::collection::vec("[a-z=&/?]{0,30}", 1..5),
                    min_len in 1usize..6) {
        let bytes: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
        let tokens = common_tokens(&bytes, TokenConfig { min_len, max_tokens: 64 });
        let is_sub = |h: &[u8], n: &[u8]| h.windows(n.len()).any(|w| w == n);
        for t in &tokens {
            prop_assert!(t.len() >= min_len);
            for s in &bytes {
                prop_assert!(is_sub(s, t), "token {:?} not in {:?}", t, s);
            }
            for u in &tokens {
                if t != u {
                    prop_assert!(!(u.len() > t.len() && is_sub(u, t)),
                        "token {:?} contained in {:?}", t, u);
                }
            }
        }
    }

    /// The longest common substring of a pair is always recovered as (part
    /// of) a token when it meets the length bar.
    #[test]
    fn tokens_complete_for_pairs(core in "[a-z]{4,10}",
                                 pre_a in "[0-9]{0,6}", post_a in "[0-9]{0,6}",
                                 pre_b in "[0-9]{0,6}", post_b in "[0-9]{0,6}") {
        // Plant a shared core so the pair always has an LCS >= 4 bytes.
        let a = format!("{pre_a}{core}{post_a}");
        let b = format!("{pre_b}{core}{post_b}");
        let lcs = longest_common_substring(a.as_bytes(), b.as_bytes());
        prop_assume!(lcs.len() >= 4);
        let tokens = common_tokens(
            &[a.as_bytes(), b.as_bytes()],
            TokenConfig { min_len: 4, max_tokens: 64 },
        );
        let is_sub = |h: &[u8], n: &[u8]| h.windows(n.len()).any(|w| w == n);
        prop_assert!(
            tokens.iter().any(|t| is_sub(t, &lcs) || is_sub(&lcs, t)),
            "lcs {:?} unrepresented in {:?}", lcs, tokens
        );
    }
}

proptest! {
    // The exactness oracles are cheap on these input sizes; more cases
    // reach the rarer containment and repeated-token shapes.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `common_tokens` is exact: precisely the substring-maximal common
    /// substrings of length ≥ `min_len`, sorted longest first then
    /// lexicographically, truncated to `max_tokens`. A three-letter
    /// alphabet keeps shared substrings (and containment ties) frequent.
    #[test]
    fn tokens_exact_against_brute_force(strings in proptest::collection::vec("[abc]{0,14}", 1..5),
                                        min_len in 1usize..5,
                                        max_tokens in 0usize..8) {
        let bytes: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
        let mut expected = brute_force_tokens(&bytes, min_len);
        expected.truncate(max_tokens);
        let got = common_tokens(&bytes, TokenConfig { min_len, max_tokens });
        prop_assert_eq!(got, expected);
    }

    /// Folding `meet_tokens` over any binary merge tree of the inputs
    /// gives the token set `common_tokens` computes over their union —
    /// the identity bottom-up extraction over a dendrogram relies on.
    #[test]
    fn meet_fold_over_merge_tree_equals_common_tokens(
        strings in proptest::collection::vec("[abcd]{0,16}", 1..7),
        picks in proptest::collection::vec(any::<u32>(), 6),
        min_len in 1usize..5,
    ) {
        let bytes: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
        let mut groups: Vec<Vec<&[u8]>> = bytes.iter().map(|s| string_tokens(s, min_len)).collect();
        let mut picks = picks.into_iter();
        while groups.len() > 1 {
            let pick = picks.next().unwrap_or(0) as usize;
            let a = groups.swap_remove(pick % groups.len());
            let b = groups.swap_remove((pick / 7) % groups.len());
            groups.push(meet_tokens(&a, &b, min_len));
        }
        let folded = groups.pop().expect("one group left");
        prop_assert_eq!(&folded, &common_token_set(&bytes, min_len));
        let owned: Vec<Vec<u8>> = folded.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(owned, common_tokens(&bytes, TokenConfig { min_len, max_tokens: usize::MAX }));
    }

    /// The generalized automaton reports, at every query position, the
    /// longest match against any of its strings.
    #[test]
    fn generalized_sam_match_lengths_oracle(
        strings in proptest::collection::vec("[abc]{0,12}", 0..4),
        t in "[abcd]{0,16}",
    ) {
        let bytes: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
        let sam = SuffixAutomaton::from_strings(&bytes);
        let t = t.as_bytes();
        let in_any = |n: &[u8]| strings.iter().any(|s| is_sub(s.as_bytes(), n));
        let brute: Vec<usize> = (0..t.len())
            .map(|j| (1..=j + 1).rev().find(|&l| in_any(&t[j + 1 - l..=j])).unwrap_or(0))
            .collect();
        prop_assert_eq!(sam.match_lengths(t), brute);
    }
}
