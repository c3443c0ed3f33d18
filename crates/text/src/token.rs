//! Word tokenization for the spell checker (the embedding layer streams
//! its own tokens, see `matelda-embed`'s encoder).

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
}
