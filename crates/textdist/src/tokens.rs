//! Invariant-token extraction: the "longest common substrings" of a set of
//! byte strings (paper §IV-E).
//!
//! A conjunction signature is the set of maximal substrings shared by every
//! member of a cluster. Everything here rests on one step, [`meet_tokens`]:
//! given the maximal common tokens of two groups of strings, the maximal
//! common tokens of their union are the maximal pieces of one side's tokens
//! that occur inside some token of the other side. A string is common to
//! `A ∪ B` iff it is common to `A` and to `B`, i.e. iff it lies inside a
//! token of `A` and inside a token of `B`; so the meet of two exact token
//! sets is exact, and any fold of meets over any merge tree yields the same
//! canonical set. [`common_tokens`] is that fold over single strings; the
//! signature pipeline folds bottom-up over a dendrogram instead.
//!
//! Each meet indexes one side in a generalized [`SuffixAutomaton`] and
//! scans the other, so it is linear in the bytes of both token sets.

use crate::sam::SuffixAutomaton;

/// Extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TokenConfig {
    /// Minimum token length in bytes. Shorter fragments ("a=", "&") carry
    /// no discriminating power and blow up the token set.
    pub min_len: usize,
    /// Hard cap on returned tokens (longest kept). Bounds signature size.
    pub max_tokens: usize,
}

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig {
            min_len: 4,
            max_tokens: 16,
        }
    }
}

/// Longest common substring of `a` and `b` (first-found on ties).
///
/// ```
/// assert_eq!(
///     leaksig_textdist::longest_common_substring(b"xbananay", b"qbananaq"),
///     b"banana".to_vec()
/// );
/// ```
pub fn longest_common_substring(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let sam = SuffixAutomaton::new(a);
    let lens = sam.match_lengths(b);
    let (best_end, &best_len) = lens
        .iter()
        .enumerate()
        .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))
        .expect("b nonempty");
    b[best_end + 1 - best_len..=best_end].to_vec()
}

/// The maximal substrings (length ≥ `config.min_len`) present in **every**
/// string of `strings`, longest first (ties broken lexicographically),
/// truncated to `config.max_tokens`.
///
/// Returns an empty vector when `strings` is empty, `config.min_len` is
/// zero, or nothing long enough is shared. Containment-redundant tokens (a
/// token that is a substring of another returned token) are dropped: in a
/// conjunction they add no constraint.
pub fn common_tokens(strings: &[&[u8]], config: TokenConfig) -> Vec<Vec<u8>> {
    let mut tokens = common_token_set(strings, config.min_len);
    tokens.truncate(config.max_tokens);
    tokens.into_iter().map(<[u8]>::to_vec).collect()
}

/// [`common_tokens`] before truncation, borrowing from the inputs: the
/// complete canonical set of maximal common tokens, as a left fold of
/// [`meet_tokens`] over the strings' [`string_tokens`].
pub fn common_token_set<'a>(strings: &[&'a [u8]], min_len: usize) -> Vec<&'a [u8]> {
    let Some((&first, rest)) = strings.split_first() else {
        return Vec::new();
    };
    let mut tokens = string_tokens(first, min_len);
    for &s in rest {
        if tokens.is_empty() {
            break;
        }
        tokens = meet_tokens(&tokens, &string_tokens(s, min_len), min_len);
    }
    tokens
}

/// The token set of a one-string group: the string itself when it is at
/// least `min_len` (and `min_len` is non-zero) bytes long, else nothing.
pub fn string_tokens(s: &[u8], min_len: usize) -> Vec<&[u8]> {
    if min_len > 0 && s.len() >= min_len {
        vec![s]
    } else {
        Vec::new()
    }
}

/// The maximal common tokens of the union of two groups, from each group's
/// own token set: the maximal strings of length ≥ `min_len` that lie
/// inside some token of `a` and inside some token of `b`, longest first
/// (ties lexicographic), none contained in another.
///
/// When `a` and `b` are the exact token sets of two string groups (as
/// returned by [`common_token_set`], [`string_tokens`] or an earlier meet),
/// the result is the exact token set of their union, whatever the order or
/// grouping of the meets that produced the inputs. Inputs need not be
/// canonical. The result borrows from the inputs.
pub fn meet_tokens<'a>(a: &[&'a [u8]], b: &[&'a [u8]], min_len: usize) -> Vec<&'a [u8]> {
    if min_len == 0 || a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    // Index the side with fewer bytes (automaton construction is the
    // costlier half) and scan the other; the result is symmetric.
    let bytes = |side: &[&[u8]]| side.iter().map(|t| t.len()).sum::<usize>();
    let (scan, index) = if bytes(a) >= bytes(b) { (a, b) } else { (b, a) };
    let sam = SuffixAutomaton::from_strings(index);
    let mut out = Vec::new();
    for &t in scan {
        push_maximal_pieces(t, &sam, min_len, &mut out);
    }
    canonicalize(&mut out);
    out
}

/// Push the maximal substrings of `t` (length ≥ `min_len`) that occur in
/// `sam` onto `out`.
fn push_maximal_pieces<'a>(
    t: &'a [u8],
    sam: &SuffixAutomaton,
    min_len: usize,
    out: &mut Vec<&'a [u8]>,
) {
    let lens = sam.match_lengths(t);
    // Match intervals ending at j are [j+1-lens[j], j]. Their starts are
    // non-decreasing in j, so interval j is contained in interval j+1 iff
    // the start does not advance; maximal intervals are exactly those whose
    // start strictly precedes the next interval's start.
    for j in 0..lens.len() {
        let l = lens[j];
        if l < min_len {
            continue;
        }
        let start = j + 1 - l;
        if j + 1 < lens.len() {
            let next_start = (j + 2).saturating_sub(lens[j + 1]);
            if next_start <= start {
                continue; // extended by the next position: not maximal
            }
        }
        out.push(&t[start..=j]);
    }
}

/// Sort longest first (ties lexicographic), deduplicate, and drop tokens
/// contained in another token of the set.
fn canonicalize(tokens: &mut Vec<&[u8]>) {
    tokens.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    tokens.dedup();
    // Sorted longest first, so a token can only be contained in one kept
    // before it; a dropped container is itself inside a kept one.
    let mut kept = 0;
    for i in 0..tokens.len() {
        let t = tokens[i];
        if !tokens[..kept]
            .iter()
            .any(|k| k.len() > t.len() && contains_sub(k, t))
        {
            tokens[kept] = t;
            kept += 1;
        }
    }
    tokens.truncate(kept);
}

fn contains_sub(haystack: &[u8], needle: &[u8]) -> bool {
    needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(strings: &[&[u8]], min_len: usize) -> Vec<Vec<u8>> {
        common_tokens(
            strings,
            TokenConfig {
                min_len,
                max_tokens: 64,
            },
        )
    }

    #[test]
    fn lcs_basic() {
        assert_eq!(longest_common_substring(b"abcdef", b"zcdefz"), b"cdef");
        assert_eq!(longest_common_substring(b"abc", b"xyz"), b"");
        assert_eq!(longest_common_substring(b"", b"abc"), b"");
        assert_eq!(longest_common_substring(b"same", b"same"), b"same");
    }

    #[test]
    fn single_string_is_its_own_token() {
        assert_eq!(toks(&[b"androidid="], 4), vec![b"androidid=".to_vec()]);
        assert!(toks(&[b"ab"], 4).is_empty());
    }

    #[test]
    fn shared_template_tokens_survive() {
        let a: &[u8] = b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO HTTP/1.1";
        let b: &[u8] = b"GET /getad?androidid=99e8d7c6b5a43210&carrier=KDDI HTTP/1.1";
        let c: &[u8] = b"GET /getad?androidid=0011223344556677&carrier=SOFTBANK HTTP/1.1";
        let tokens = toks(&[a, b, c], 5);
        let flat: Vec<String> = tokens
            .iter()
            .map(|t| String::from_utf8_lossy(t).into_owned())
            .collect();
        assert!(
            flat.iter().any(|t| t.contains("androidid=")),
            "tokens: {flat:?}"
        );
        assert!(
            flat.iter().any(|t| t.contains("&carrier=")),
            "tokens: {flat:?}"
        );
        // Every token must be present in every input.
        for t in &tokens {
            for s in [a, b, c] {
                assert!(contains_sub(s, t), "token {t:?} missing from {s:?}");
            }
        }
    }

    #[test]
    fn disjoint_strings_have_no_tokens() {
        assert!(toks(&[b"aaaaaaa", b"bbbbbbb"], 4).is_empty());
    }

    #[test]
    fn min_len_filters_short_fragments() {
        let tokens = toks(&[b"xx__ab__yy", b"zz__ab__ww"], 7);
        assert!(tokens.is_empty(), "got {tokens:?}");
        let tokens = toks(&[b"xx__ab__yy", b"zz__ab__ww"], 4);
        assert_eq!(tokens, vec![b"__ab__".to_vec()]);
    }

    #[test]
    fn contained_tokens_are_dropped() {
        // "id=12345" appears whole; "2345" alone would be contained.
        let tokens = toks(&[b"Aid=12345B", b"Cid=12345D"], 4);
        assert_eq!(tokens, vec![b"id=12345".to_vec()]);
    }

    #[test]
    fn max_tokens_caps_longest_first() {
        // Construct inputs sharing three separated tokens of different
        // lengths; the cap keeps the longest.
        let a: &[u8] = b"AAAAAAA.x.BBBBB.y.CCCC";
        let b: &[u8] = b"AAAAAAA-u-BBBBB-v-CCCC";
        let got = common_tokens(
            &[a, b],
            TokenConfig {
                min_len: 4,
                max_tokens: 2,
            },
        );
        assert_eq!(got, vec![b"AAAAAAA".to_vec(), b"BBBBB".to_vec()]);
    }

    #[test]
    fn order_of_inputs_does_not_change_token_set() {
        let a: &[u8] = b"GET /v1/ad?imei=355195000000017&net=doc";
        let b: &[u8] = b"GET /v1/ad?imei=868030000000000&net=kdd";
        let c: &[u8] = b"GET /v1/ad?imei=352099000000001&net=sfb";
        let mut t1 = toks(&[a, b, c], 4);
        let mut t2 = toks(&[c, a, b], 4);
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
    }

    #[test]
    fn binary_content_is_fine() {
        let a = [0u8, 1, 2, 3, 250, 251, 252, 253, 254, 255, 9, 9];
        let b = [7u8, 7, 250, 251, 252, 253, 254, 255, 8, 8];
        let tokens = toks(&[&a, &b], 4);
        assert_eq!(tokens, vec![vec![250, 251, 252, 253, 254, 255]]);
    }

    #[test]
    fn empty_input_set() {
        assert!(toks(&[], 4).is_empty());
    }

    #[test]
    fn meet_of_groups_is_the_token_set_of_their_union() {
        let a: [&[u8]; 2] = [b"GET /ad?imei=355195&slot=1", b"GET /ad?imei=355195&slot=2"];
        let b: [&[u8]; 2] = [b"GET /ad?imei=868030&slot=1", b"GET /ad?imei=355195&slot=7"];
        let ta = common_token_set(&a, 4);
        let tb = common_token_set(&b, 4);
        let all = [a[0], a[1], b[0], b[1]];
        assert_eq!(meet_tokens(&ta, &tb, 4), common_token_set(&all, 4));
        assert_eq!(meet_tokens(&tb, &ta, 4), common_token_set(&all, 4));
        assert!(meet_tokens(&ta, &[], 4).is_empty());
        assert!(meet_tokens(&ta, &tb, 0).is_empty());
    }

    #[test]
    fn repeated_token_in_one_member() {
        // Token occurs twice in one string, once in the other: still one
        // deduplicated token.
        let tokens = toks(&[b"tokX...tokX", b"__tokX__"], 4);
        assert_eq!(tokens, vec![b"tokX".to_vec()]);
    }
}
