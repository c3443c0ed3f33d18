//! # matelda-text
//!
//! Text-processing substrate for MaTElDa: word tokenization, string
//! distances and a dictionary-based spell checker.
//!
//! The spell checker is this repo's substitute for **GNU Aspell**, which
//! the paper uses as its typo detector `d_TD` (Eq. 4): a cell is flagged
//! when any of its words is missing from the dictionary. Aspell's role in
//! the pipeline is a pure membership test, so a static embedded word list
//! (common English core + the domain vocabularies the synthetic lake
//! generators draw from) reproduces its behaviour: injected typos fall out
//! of the dictionary exactly as real-world typos fall out of Aspell's.

pub mod distance;
pub mod spell;
pub mod token;

pub use distance::{damerau_levenshtein, jaccard, levenshtein};
pub use spell::SpellChecker;
pub use token::words;
