//! Helpers shared by the integration tests.

pub mod exposition;
pub mod fixture;
