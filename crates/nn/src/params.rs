//! Named trainable parameters with gradient accumulators and optimizer
//! state, shared across the per-sample tapes built by [`crate::graph::Graph`].

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(usize);

#[derive(Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    value: Tensor,
    #[serde(skip, default = "empty_tensor")]
    grad: Tensor,
    /// Adam first-moment estimate.
    #[serde(skip, default = "empty_tensor")]
    m: Tensor,
    /// Adam second-moment estimate.
    #[serde(skip, default = "empty_tensor")]
    v: Tensor,
}

fn empty_tensor() -> Tensor {
    Tensor::zeros(0, 0)
}

/// A copy's value is cache-line aligned like the original's
/// ([`Tensor::align`]): serving prices through clones of a trained model.
impl Clone for ParamEntry {
    fn clone(&self) -> Self {
        let mut value = self.value.clone();
        value.align();
        Self {
            name: self.name.clone(),
            value,
            grad: self.grad.clone(),
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }
}

/// Holds every trainable tensor of a model, its accumulated gradient and
/// its optimizer moments. Serialisable (values only) for checkpointing.
///
/// Every value starts on a cache-line boundary ([`Tensor::align`]) — from
/// registration, through in-place optimizer steps and `clone`, and again
/// after [`ParamStore::restore_state`] — so the speed of the inference
/// kernels that stream the weights does not depend on where the
/// allocator happened to put them in this run. Only assigning a whole
/// tensor through [`ParamStore::value_mut`] gives that up, until the
/// next `clone` or `restore_state`.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its handle.
    pub fn register(&mut self, name: impl Into<String>, mut value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        value.align();
        self.params.push(ParamEntry {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        // A ParamId is minted by register() on this store or, read from a
        // checkpoint, checked by ModelBundle::load (through get()), so
        // id.0 < params.len() for any id a caller holds.
        &self.params[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Name and value of `id`, or `None` if this store holds no such
    /// parameter: the lookup for ids that come from a checkpoint rather
    /// than from [`ParamStore::register`], before anything indexes with
    /// them.
    pub fn get(&self, id: ParamId) -> Option<(&str, &Tensor)> {
        self.params.get(id.0).map(|p| (p.name.as_str(), &p.value))
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutable accumulated gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].grad
    }

    /// All parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Resets every gradient accumulator to zero (start of a batch).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data().iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`;
    /// returns the norm before clipping.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                for g in p.grad.data_mut() {
                    *g *= s;
                }
            }
        }
        norm
    }

    /// Re-initialises optimizer state after deserialisation (`grad`/`m`/`v`
    /// are not checkpointed) and re-aligns the deserialised values.
    pub fn restore_state(&mut self) {
        for p in &mut self.params {
            p.value.align();
            let (r, c) = p.value.shape();
            if p.grad.shape() != (r, c) {
                p.grad = Tensor::zeros(r, c);
                p.m = Tensor::zeros(r, c);
                p.v = Tensor::zeros(r, c);
            }
        }
    }

    pub(crate) fn entry_mut(
        &mut self,
        id: ParamId,
    ) -> (&mut Tensor, &Tensor, &mut Tensor, &mut Tensor) {
        let e = &mut self.params[id.0];
        (&mut e.value, &e.grad, &mut e.m, &mut e.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::row(&[1.0, 2.0]));
        assert_eq!(s.name(id), "w");
        assert_eq!(s.value(id).data(), &[1.0, 2.0]);
        assert_eq!(s.get(id), Some(("w", s.value(id))));
        assert_eq!(s.get(ParamId(1)), None);
        assert_eq!(s.grad(id).data(), &[0.0, 0.0]);
        assert_eq!(s.num_weights(), 2);
    }

    #[test]
    fn zero_grads_clears_accumulators() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::row(&[1.0]));
        s.grad_mut(id).axpy(1.0, &Tensor::row(&[5.0]));
        assert_eq!(s.grad(id).data(), &[5.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).data(), &[0.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut s = ParamStore::new();
        let a = s.register("a", Tensor::row(&[3.0]));
        let b = s.register("b", Tensor::row(&[4.0]));
        s.grad_mut(a).axpy(1.0, &Tensor::row(&[3.0]));
        s.grad_mut(b).axpy(1.0, &Tensor::row(&[4.0]));
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
        let before = s.grad_norm();
        s.clip_grad_norm(10.0); // already below the cap: unchanged
        assert!((s.grad_norm() - before).abs() < 1e-7);
    }

    /// Not under Miri (see `Tensor::align`'s test).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn values_sit_on_a_cache_line_after_register_clone_step_and_restore() {
        let mut s = ParamStore::new();
        // Odd sizes in between, so the allocator has no reason to hand
        // out line-aligned blocks by itself.
        let ids: Vec<ParamId> = [3usize, 64, 5, 256, 7, 1000]
            .iter()
            .map(|&n| s.register(format!("w{n}"), Tensor::full(1, n, 0.5)))
            .collect();
        let aligned = |s: &ParamStore| {
            ids.iter()
                .all(|&id| s.value(id).data().as_ptr().align_offset(64) == 0)
        };
        assert!(aligned(&s));
        for &id in &ids {
            let ones = Tensor::full(1, s.value(id).len(), 1.0);
            s.grad_mut(id).axpy(1.0, &ones);
        }
        crate::optim::Sgd::new(0.1).step(&mut s);
        assert!(aligned(&s), "an optimizer step updates in place");
        let copy = s.clone();
        assert!(aligned(&copy));
        let mut back: ParamStore =
            serde_json::from_str(&serde_json::to_string(&copy).unwrap()).unwrap();
        back.restore_state();
        assert!(aligned(&back));
        for &id in &ids {
            assert_eq!(back.value(id), s.value(id));
        }
    }

    #[test]
    fn serde_round_trip_preserves_values() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let json = serde_json::to_string(&s).unwrap();
        let mut back: ParamStore = serde_json::from_str(&json).unwrap();
        back.restore_state();
        assert_eq!(back.value(id), s.value(id));
        assert_eq!(back.grad(id).shape(), (2, 2));
    }
}
