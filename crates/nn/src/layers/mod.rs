//! Neural-network layers built on top of the autograd [`crate::graph::Graph`].

mod attention;
mod conv1d;
mod dense;
mod lstm;

pub use attention::{child_attention, dot_attention, dot_attention_into, ChildAttentionTape};
pub use conv1d::Conv1d;
pub use dense::{Activation, Dense};
pub use lstm::{BoundLstm, LstmCell, LstmTape};

use crate::params::{ParamId, ParamStore};

/// Checks that `id` is the parameter registered as `name` with shape
/// `rows x cols`: what each layer's `check_params` asks of its tensors.
pub(crate) fn check_param(
    store: &ParamStore,
    id: ParamId,
    name: &str,
    (rows, cols): (usize, usize),
) -> Result<(), String> {
    match store.get(id) {
        Some((found, t)) if found == name && t.shape() == (rows, cols) => Ok(()),
        Some((found, t)) => Err(format!(
            "{name} is `{found}` {}x{}, expected `{name}` {rows}x{cols}",
            t.rows(),
            t.cols()
        )),
        None => Err(format!("{name} is {id:?}, past the store's {} parameters", store.len())),
    }
}
