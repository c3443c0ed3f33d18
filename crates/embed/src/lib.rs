//! # matelda-embed
//!
//! Table/text embeddings for domain-based cell folding (paper §3.2).
//!
//! The paper serializes each table into one long string (Alg. 1 line 3)
//! and feeds it to a pre-trained **BERT** model to obtain one dense vector
//! per table, then clusters those vectors with HDBSCAN. The authors stress
//! that this step is a *coarse, pragmatic domain filter* — "we do not
//! believe that there is a best domain-based folding technique" — and show
//! (§4.5.2) that swapping the embedding (SANTOS scores, 1%-row sampling)
//! barely changes effectiveness.
//!
//! This crate substitutes BERT with a deterministic **signed
//! feature-hashing encoder** ([`HashedEncoder`]): word uni/bi-grams and
//! character trigrams are hashed into a fixed-dimension vector with ±1
//! signs, weighted with sublinear term frequency and L2-normalized. Tables
//! from the same domain share vocabulary and value shapes, so their hashed
//! vectors have high cosine similarity exactly where BERT embeddings would
//! — which is all the downstream HDBSCAN step consumes.
//!
//! [`embed_table`] streams a table's cells row-major into the encoder
//! instead of building the serialized string, and the encoder sums its
//! features in first-occurrence order, so a table's vector has the same
//! bits in every run and at every thread count.

pub mod encoder;
pub mod minhash;
pub mod vector;

pub use encoder::{embed_table, embed_table_sampled, EncoderConfig, HashedEncoder};
pub use minhash::MinHashSketch;
pub use vector::{cosine, euclidean, Vector};
