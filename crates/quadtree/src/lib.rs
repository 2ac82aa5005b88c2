//! # sfc-quadtree
//!
//! Spatial quadtree structure for the FMM communication model of *DeFord &
//! Kalyanaraman (ICPP 2013)*, Section III: the spatial domain is a
//! `2^k × 2^k` grid represented as a quadtree whose leaves are the occupied
//! finest-resolution cells.
//!
//! The crate provides:
//!
//! - [`Cell`]: a cell at an arbitrary resolution level, with parent/child
//!   navigation, same-level neighbor enumeration, and Morton codes;
//! - [`interaction::interaction_list`]: the FMM interaction list — "the
//!   children of the cell's parent's neighbors that share no common edges or
//!   corners with the original cell" — validated against the worked example
//!   in the paper's Figure 4;
//! - [`CompressedQuadtree`]: the compressed (no single-child chains)
//!   pointer-based quadtree of Hariharan & Aluru used by real FMM codes,
//!   built bottom-up from Morton-sorted points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cell3d;
pub mod compressed;
pub mod interaction;

pub use cell::{Cell, NeighborList};
pub use compressed::CompressedQuadtree;
pub use interaction::{interaction_list, InteractionList};
