//! Tokenization helpers shared by the spell checker, embeddings and
//! detectors.

/// Splits a cell value into lowercase alphabetic words.
///
/// Digits and punctuation act as separators; tokens that contain any digit
/// are dropped (they are data, not words, and should not be spell-checked —
/// Aspell behaves the same way on `42nd`-free numeric tokens).
pub fn words(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && t.chars().all(|c| c.is_alphabetic()))
        .map(|t| t.to_lowercase())
        .collect()
}

/// Lowercased word tokens *including* alphanumeric mixes (`a4`, `3rd`),
/// used by the embedding layer where every token is signal.
pub fn tokens(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// Character trigrams of the lowercased input with `^`/`$` boundary
/// padding. Exposes sub-word shape to the embedding layer so that columns
/// with shared formats (dates, codes) look similar even with disjoint
/// vocabulary.
pub fn char_trigrams(s: &str) -> Vec<String> {
    let lowered = s.to_lowercase();
    let padded: Vec<char> =
        std::iter::once('^').chain(lowered.chars()).chain(std::iter::once('$')).collect();
    if padded.len() < 3 {
        return vec![padded.iter().collect()];
    }
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_and_lowercase() {
        assert_eq!(words("Chelsea FC"), vec!["chelsea", "fc"]);
        assert_eq!(words("The Dark Knight"), vec!["the", "dark", "knight"]);
        assert_eq!(words("28,341,469"), Vec::<String>::new());
        assert_eq!(words("Feb 9, 1940"), vec!["feb"]);
        assert_eq!(words(""), Vec::<String>::new());
    }

    #[test]
    fn tokens_keep_alphanumerics() {
        assert_eq!(tokens("A4 paper"), vec!["a4", "paper"]);
        assert_eq!(tokens("1994-07-05"), vec!["1994", "07", "05"]);
    }

    #[test]
    fn trigram_padding() {
        assert_eq!(char_trigrams("ab"), vec!["^ab", "ab$"]);
        assert_eq!(char_trigrams(""), vec!["^$"]);
        assert_eq!(char_trigrams("a"), vec!["^a$"]);
        let t = char_trigrams("abc");
        assert_eq!(t, vec!["^ab", "abc", "bc$"]);
    }
}
