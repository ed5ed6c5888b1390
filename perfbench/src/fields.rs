//! The benchmark's input fields, generated by `hpmdr-datasets`.
//!
//! Field contents are fixed (a constant seed per field), so every run
//! works on the same bytes and a run's seed only changes the order and
//! mix of its requests.

use hpmdr_datasets::fields;

/// Seed of every generated field.
pub const FIELD_SEED: u64 = 0x4d44_5231;

/// A generated field at its storage precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// Single precision.
    F32(Vec<f32>),
    /// Double precision.
    F64(Vec<f64>),
}

impl Data {
    /// Element type name.
    pub fn dtype(&self) -> &'static str {
        match self {
            Data::F32(_) => "f32",
            Data::F64(_) => "f64",
        }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            Data::F32(v) => std::mem::size_of_val(v.as_slice()) as u64,
            Data::F64(v) => std::mem::size_of_val(v.as_slice()) as u64,
        }
    }
}

/// One named input field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// What the generator imitates.
    pub name: &'static str,
    /// Row-major shape.
    pub shape: Vec<usize>,
    /// Values.
    pub data: Data,
}

fn to_f32(v: Vec<f64>) -> Vec<f32> {
    v.into_iter().map(|x| x as f32).collect()
}

/// JHTDB-like turbulent velocity component `axis` (0..3), f32.
pub fn jhtdb_velocity(shape: &[usize], axis: u64) -> Field {
    Field {
        name: "jhtdb-velocity",
        shape: shape.to_vec(),
        data: Data::F32(to_f32(fields::velocity_component(
            shape,
            FIELD_SEED ^ (0x80 + axis),
        ))),
    }
}

/// Nyx-like lognormal baryon density, f32.
pub fn nyx_density(shape: &[usize]) -> Field {
    Field {
        name: "nyx-density",
        shape: shape.to_vec(),
        data: Data::F32(to_f32(fields::lognormal_density(
            shape, FIELD_SEED, 1.2, 1.0,
        ))),
    }
}

/// Miranda-like density with sharp material interfaces, f64.
pub fn miranda_density(shape: &[usize]) -> Field {
    Field {
        name: "miranda-density",
        shape: shape.to_vec(),
        data: Data::F64(fields::interface_field(shape, FIELD_SEED, 3, 150.0)),
    }
}
