//! Suffix automaton over byte strings.
//!
//! The suffix automaton of `s` is the minimal DFA accepting every substring
//! of `s`; it has at most `2|s| − 1` states and is built online in O(|s|)
//! (Blumer et al.). The generalized form indexes several strings at once
//! and accepts every substring of any of them. `leaksig` uses it for two
//! queries that signature generation performs constantly:
//!
//! * [`SuffixAutomaton::contains`] — is `t` a substring of `s`?
//! * [`SuffixAutomaton::match_lengths`] — for each position `j` of a query
//!   `t`, the length of the longest substring of `s` ending at `t[j]`. This
//!   is the core of both longest-common-substring and invariant-token
//!   refinement.

/// One automaton state: transition map, suffix link, and the length of the
/// longest string reaching this state.
#[derive(Debug, Clone)]
struct State {
    /// Sorted association list of byte → state. HTTP payloads have small
    /// per-state fan-out, so a sorted Vec beats a HashMap here in both
    /// memory and lookup time.
    next: Vec<(u8, u32)>,
    link: i32,
    len: u32,
}

impl State {
    fn get(&self, b: u8) -> Option<u32> {
        self.next
            .binary_search_by_key(&b, |&(k, _)| k)
            .ok()
            .map(|i| self.next[i].1)
    }

    fn set(&mut self, b: u8, to: u32) {
        match self.next.binary_search_by_key(&b, |&(k, _)| k) {
            Ok(i) => self.next[i].1 = to,
            Err(i) => self.next.insert(i, (b, to)),
        }
    }
}

/// Suffix automaton of a fixed byte string, or of a fixed list of them.
#[derive(Debug, Clone)]
pub struct SuffixAutomaton {
    states: Vec<State>,
}

impl SuffixAutomaton {
    /// Build the automaton of `s` in O(|s|) amortised.
    pub fn new(s: &[u8]) -> Self {
        Self::from_strings(&[s])
    }

    /// Build the generalized automaton of `strings`: it accepts every
    /// substring of any of them, and [`SuffixAutomaton::match_lengths`]
    /// measures matches against all of them at once. O(Σ|s|) amortised.
    pub fn from_strings(strings: &[&[u8]]) -> Self {
        let total: usize = strings.iter().map(|s| s.len()).sum();
        let mut sam = SuffixAutomaton {
            states: Vec::with_capacity(1 + 2 * total),
        };
        sam.states.push(State {
            next: Vec::new(),
            link: -1,
            len: 0,
        });
        for &s in strings {
            let mut last = 0u32;
            for &b in s {
                last = sam.extend(last, b);
            }
        }
        sam
    }

    /// Append `b` after the state `last`; returns the state of the
    /// extended string. When an earlier string already reached the
    /// extension, the existing state is reused (or split to the right
    /// length) rather than adding an unreachable duplicate, so `len` and
    /// suffix links stay exact across strings.
    fn extend(&mut self, last: u32, b: u8) -> u32 {
        let last_len = self.states[last as usize].len;
        if let Some(q) = self.states[last as usize].get(b) {
            if self.states[q as usize].len == last_len + 1 {
                return q;
            }
            return self.split(last as i32, q, b);
        }

        let cur = self.states.len() as u32;
        self.states.push(State {
            next: Vec::new(),
            link: -1,
            len: last_len + 1,
        });

        let mut p = last as i32;
        while p >= 0 && self.states[p as usize].get(b).is_none() {
            self.states[p as usize].set(b, cur);
            p = self.states[p as usize].link;
        }

        self.states[cur as usize].link = if p < 0 {
            0
        } else {
            let q = self.states[p as usize].get(b).expect("checked in loop");
            if self.states[p as usize].len + 1 == self.states[q as usize].len {
                q as i32
            } else {
                self.split(p, q, b) as i32
            }
        };
        cur
    }

    /// Clone `q` (the `b`-successor of `p`) into a state of length
    /// `len(p) + 1`, redirect `p`'s suffix chain to it, and return it.
    fn split(&mut self, mut p: i32, q: u32, b: u8) -> u32 {
        let clone = self.states.len() as u32;
        let mut cloned = self.states[q as usize].clone();
        cloned.len = self.states[p as usize].len + 1;
        self.states.push(cloned);
        while p >= 0 && self.states[p as usize].get(b) == Some(q) {
            self.states[p as usize].set(b, clone);
            p = self.states[p as usize].link;
        }
        self.states[q as usize].link = clone as i32;
        clone
    }

    /// Number of automaton states (diagnostics).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Whether `t` occurs as a substring of the indexed string.
    pub fn contains(&self, t: &[u8]) -> bool {
        let mut state = 0u32;
        for &b in t {
            match self.states[state as usize].get(b) {
                Some(next) => state = next,
                None => return false,
            }
        }
        true
    }

    /// For each position `j` in `t`, the length of the longest substring of
    /// the indexed string that ends exactly at `t[j]` (inclusive).
    ///
    /// Standard LCS-on-SAM walk: follow transitions, falling back along
    /// suffix links when stuck.
    pub fn match_lengths(&self, t: &[u8]) -> Vec<usize> {
        let mut out = Vec::with_capacity(t.len());
        let mut state = 0u32;
        let mut len = 0usize;
        for &b in t {
            loop {
                if let Some(next) = self.states[state as usize].get(b) {
                    state = next;
                    len += 1;
                    break;
                }
                let link = self.states[state as usize].link;
                if link < 0 {
                    len = 0;
                    break;
                }
                state = link as u32;
                len = self.states[state as usize].len as usize;
            }
            out.push(len);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_substrings_contained(s: &[u8]) {
        let sam = SuffixAutomaton::new(s);
        for i in 0..s.len() {
            for j in i..=s.len() {
                assert!(sam.contains(&s[i..j]), "missing {:?}", &s[i..j]);
            }
        }
    }

    #[test]
    fn contains_every_substring() {
        all_substrings_contained(b"abcbc");
        all_substrings_contained(b"aaaa");
        all_substrings_contained(b"GET /ad?id=1 HTTP/1.1");
    }

    #[test]
    fn rejects_non_substrings() {
        let sam = SuffixAutomaton::new(b"banana");
        assert!(!sam.contains(b"bananas"));
        assert!(!sam.contains(b"nab"));
        assert!(!sam.contains(b"x"));
        assert!(sam.contains(b""));
        assert!(sam.contains(b"anan"));
    }

    #[test]
    fn empty_string_automaton() {
        let sam = SuffixAutomaton::new(b"");
        assert!(sam.contains(b""));
        assert!(!sam.contains(b"a"));
        assert_eq!(sam.match_lengths(b"abc"), vec![0, 0, 0]);
    }

    #[test]
    fn state_count_is_linear() {
        let s = b"abcabxabcd".repeat(10);
        let sam = SuffixAutomaton::new(&s);
        assert!(sam.state_count() <= 2 * s.len());
    }

    #[test]
    fn generalized_automaton_accepts_exactly_the_union() {
        let strings: [&[u8]; 4] = [b"abcab", b"bcabd", b"", b"cabx"];
        let sam = SuffixAutomaton::from_strings(&strings);
        let in_any = |t: &[u8]| strings.iter().any(|s| s.windows(t.len()).any(|w| w == t));
        let alphabet = b"abcdx";
        // Every string up to length 4 over the alphabet.
        let mut queue: Vec<Vec<u8>> = vec![Vec::new()];
        while let Some(t) = queue.pop() {
            assert_eq!(sam.contains(&t), t.is_empty() || in_any(&t), "{t:?}");
            if t.len() < 4 {
                for &b in alphabet {
                    let mut u = t.clone();
                    u.push(b);
                    queue.push(u);
                }
            }
        }
        let t = b"xbcabdcab";
        let brute: Vec<usize> = (0..t.len())
            .map(|j| {
                (1..=j + 1)
                    .rev()
                    .find(|&l| in_any(&t[j + 1 - l..=j]))
                    .unwrap_or(0)
            })
            .collect();
        assert_eq!(sam.match_lengths(t), brute);
        assert_eq!(brute, vec![1, 1, 2, 3, 4, 5, 1, 2, 3]);
    }

    #[test]
    fn match_lengths_basic() {
        let sam = SuffixAutomaton::new(b"banana");
        // t = "ananas": longest match ending at each position.
        let got = sam.match_lengths(b"ananas");
        assert_eq!(got, vec![1, 2, 3, 4, 5, 0]);
    }

    #[test]
    fn match_lengths_against_brute_force() {
        let s = b"GET /getad?aid=f3a9&carrier=DOCOMO";
        let t = b"POST /getad?aid=99e8&net=DOCOMO";
        let sam = SuffixAutomaton::new(s);
        let got = sam.match_lengths(t);
        // Brute force: for each end j, the longest l with t[j+1-l..=j] in s.
        let s_contains = |needle: &[u8]| {
            s.windows(needle.len().max(1)).any(|w| w == needle) || needle.is_empty()
        };
        for j in 0..t.len() {
            let mut best = 0;
            for l in 1..=j + 1 {
                if s_contains(&t[j + 1 - l..=j]) {
                    best = l;
                }
            }
            assert_eq!(got[j], best, "at position {j}");
        }
    }
}
