#![warn(missing_docs)]
//! String distances and common-substring machinery for `leaksig`.
//!
//! Two parts of the paper live here:
//!
//! * **HTTP host distance** (§IV-B) is a length-normalised Levenshtein edit
//!   distance over FQDN strings — [`levenshtein`], [`normalized_levenshtein`].
//! * **Conjunction signature generation** (§IV-E) needs the "longest common
//!   substrings" of a cluster of HTTP payloads: the invariant tokens shared
//!   by every member. [`common_tokens`] computes the maximal substrings (of
//!   a configurable minimum length) present in *all* of a set of strings
//!   as a fold of [`meet_tokens`], which merges the token sets of two
//!   groups into the token set of their union with one generalized
//!   [`SuffixAutomaton`], so the whole extraction is near-linear in total
//!   input size and can run bottom-up over a cluster hierarchy.
//!
//! Everything operates on `&[u8]`: HTTP payloads are byte strings and the
//! paper's distances are defined on raw packet content.

mod levenshtein;
mod sam;
mod tokens;

pub use levenshtein::{levenshtein, levenshtein_bounded, normalized_levenshtein};
pub use sam::SuffixAutomaton;
pub use tokens::{
    common_token_set, common_tokens, longest_common_substring, meet_tokens, string_tokens,
    TokenConfig,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's host-distance formula end to end:
    /// `ed(host_x, host_y) / max(len_x, len_y)`.
    #[test]
    fn host_distance_examples() {
        // Same ad network, different subdomain: small distance.
        let d1 = normalized_levenshtein(b"ad1.ad-maker.info", b"ad2.ad-maker.info");
        // Unrelated domains: large distance.
        let d2 = normalized_levenshtein(b"ad-maker.info", b"googlesyndication.com");
        assert!(d1 < 0.1, "d1 = {d1}");
        assert!(d2 > 0.5, "d2 = {d2}");
    }
}
