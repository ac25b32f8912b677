//! One runner per table/figure of the paper's evaluation (the index is the
//! table in the `da_core` crate docs).

pub mod accuracy;
pub mod blackbox;
pub mod confidence;
pub mod dq;
pub mod energy;
pub mod fig4;
pub mod heatmap;
pub mod profiles;
pub mod transfer;
pub mod whitebox;
pub mod wiring;
