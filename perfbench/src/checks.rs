//! Output checks the benchmark computes itself.
//!
//! Every check recomputes its reference from the input tensor and the
//! returned factors with plain loops written here, never with the
//! program's kernels and never against stored output.

use hooi::TuckerDecomposition;
use linalg::Matrix;
use sptensor::{DenseTensor, SparseTensor};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Largest allowed `|UᵀU − I|` entry of a factor matrix.
pub const ORTHONORMAL_TOL: f64 = 1e-10;
/// Largest allowed core entry difference, relative to `‖X‖`.
pub const CORE_TOL: f64 = 1e-9;
/// Largest allowed difference between the reported and recomputed fit.
pub const FIT_TOL: f64 = 1e-9;
/// Largest allowed drop of the fit from one iteration to the next.
pub const FIT_DROP_TOL: f64 = 1e-12;
/// Largest allowed prediction difference, relative to the sum of the
/// absolute terms of the model evaluation.
pub const PREDICT_TOL: f64 = 1e-12;

/// `‖X‖` from the stored values.
pub fn tensor_norm(tensor: &SparseTensor) -> f64 {
    tensor.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Largest entry of `|UᵀU − I|`.
pub fn orthonormality_error(u: &Matrix) -> f64 {
    let r = u.ncols();
    let mut gram = vec![0.0; r * r];
    for i in 0..u.nrows() {
        let row = u.row(i);
        for a in 0..r {
            for b in 0..r {
                gram[a * r + b] += row[a] * row[b];
            }
        }
    }
    let mut worst: f64 = 0.0;
    for a in 0..r {
        for b in 0..r {
            let target = if a == b { 1.0 } else { 0.0 };
            worst = worst.max((gram[a * r + b] - target).abs());
        }
    }
    worst
}

pub fn check_orthonormal(factors: &[Matrix]) -> Result<(), String> {
    for (mode, u) in factors.iter().enumerate() {
        let err = orthonormality_error(u);
        if err.is_nan() || err > ORTHONORMAL_TOL {
            return Err(format!("factor {mode}: |UᵀU − I| reaches {err:e}"));
        }
    }
    Ok(())
}

/// Writes `⊗_n U_n(index[n], :)` (last mode fastest, the dense core's
/// order) scaled by `x` into `out`, using `tmp` as scratch.
fn kron_rows(x: f64, factors: &[Matrix], index: &[usize], out: &mut Vec<f64>, tmp: &mut Vec<f64>) {
    out.clear();
    out.push(x);
    for (u, &i) in factors.iter().zip(index) {
        let row = u.row(i);
        tmp.clear();
        for &a in out.iter() {
            for &b in row {
                tmp.push(a * b);
            }
        }
        std::mem::swap(out, tmp);
    }
}

/// `X ×₁ U₁ᵀ ⋯ ×_N U_Nᵀ` by one pass over the COO entries, in the dense
/// core's element order.
pub fn core_from_coo(tensor: &SparseTensor, factors: &[Matrix]) -> Vec<f64> {
    let len: usize = factors.iter().map(Matrix::ncols).product();
    let mut core = vec![0.0; len];
    let (mut k, mut tmp) = (Vec::with_capacity(len), Vec::with_capacity(len));
    for (index, x) in tensor.iter() {
        kron_rows(x, factors, index, &mut k, &mut tmp);
        for (c, v) in core.iter_mut().zip(&k) {
            *c += v;
        }
    }
    core
}

/// The fit `1 − √(‖X‖² − ‖G‖²)/‖X‖` from the two norms.
pub fn fit_from_norms(x_norm: f64, core: &[f64]) -> f64 {
    let g2: f64 = core.iter().map(|g| g * g).sum();
    1.0 - (x_norm * x_norm - g2).max(0.0).sqrt() / x_norm
}

/// Compares a returned core with the recomputed one.
pub fn check_core(reported: &DenseTensor, own: &[f64], x_norm: f64) -> Result<(), String> {
    if reported.len() != own.len() {
        return Err(format!(
            "core has {} entries, expected {}",
            reported.len(),
            own.len()
        ));
    }
    let worst = reported
        .as_slice()
        .iter()
        .zip(own)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let tol = CORE_TOL * x_norm;
    if reported.as_slice().iter().any(|g| !g.is_finite()) || worst > tol {
        return Err(format!(
            "core differs from X×U₁ᵀ⋯×U_Nᵀ by {worst:e} (> {tol:e})"
        ));
    }
    Ok(())
}

/// Fits must never fall from one iteration to the next.
pub fn check_fits_monotone(fits: &[f64]) -> Result<(), String> {
    for (i, w) in fits.windows(2).enumerate() {
        if w[1].is_nan() || w[1] < w[0] - FIT_DROP_TOL {
            return Err(format!(
                "fit fell from {} to {} at iteration {}",
                w[0],
                w[1],
                i + 2
            ));
        }
    }
    Ok(())
}

/// Every check a returned decomposition of `tensor` must pass:
/// orthonormal factors, the core equal to the projection of `X` onto them,
/// the final fit equal to the one recomputed from `‖X‖` and `‖G‖`, and
/// fits that never fall.
pub fn check_solve(
    tensor: &SparseTensor,
    x_norm: f64,
    dec: &TuckerDecomposition,
) -> Result<(), String> {
    if dec.factors.len() != tensor.order() {
        return Err(format!(
            "{} factors for an order-{} tensor",
            dec.factors.len(),
            tensor.order()
        ));
    }
    for (mode, (u, &dim)) in dec.factors.iter().zip(tensor.dims()).enumerate() {
        if u.nrows() != dim {
            return Err(format!(
                "factor {mode} has {} rows, mode size {dim}",
                u.nrows()
            ));
        }
    }
    check_orthonormal(&dec.factors)?;
    let own = core_from_coo(tensor, &dec.factors);
    check_core(&dec.core, &own, x_norm)?;
    let fit = fit_from_norms(x_norm, &own);
    let reported = dec.final_fit();
    let diff = (fit - reported).abs();
    if diff.is_nan() || diff > FIT_TOL {
        return Err(format!(
            "reported fit {reported} but ‖X‖ and ‖G‖ give {fit}"
        ));
    }
    check_fits_monotone(&dec.fits)
}

/// `[[G; U₁ … U_N]]` at one index, with the sum of the absolute values of
/// its terms (the scale of its rounding error).
pub fn model_value(core: &DenseTensor, factors: &[Matrix], index: &[usize]) -> (f64, f64) {
    let (mut k, mut tmp) = (Vec::new(), Vec::new());
    kron_rows(1.0, factors, index, &mut k, &mut tmp);
    let mut value = 0.0;
    let mut scale = 0.0;
    for (g, w) in core.as_slice().iter().zip(&k) {
        value += g * w;
        scale += (g * w).abs();
    }
    (value, scale)
}

/// Every predicted value must equal the model evaluated here.
pub fn check_predictions(
    dec: &TuckerDecomposition,
    indices: &[Vec<usize>],
    values: &[f64],
) -> Result<(), String> {
    if indices.len() != values.len() {
        return Err(format!(
            "{} values for {} indices",
            values.len(),
            indices.len()
        ));
    }
    for (index, &v) in indices.iter().zip(values) {
        let (own, scale) = model_value(&dec.core, &dec.factors, index);
        let err = (own - v).abs();
        if err.is_nan() || err > PREDICT_TOL * scale {
            return Err(format!(
                "predict at {index:?} returned {v}, the model gives {own}"
            ));
        }
    }
    Ok(())
}

/// A hash of a decomposition's bits, to compare results without keeping
/// them.
pub fn fingerprint(dec: &TuckerDecomposition) -> u64 {
    let mut h = DefaultHasher::new();
    dec.iterations.hash(&mut h);
    dec.core.dims().hash(&mut h);
    let slices = [&dec.fits[..], dec.core.as_slice()];
    for xs in slices
        .into_iter()
        .chain(dec.factors.iter().map(Matrix::as_slice))
    {
        xs.len().hash(&mut h);
        for x in xs {
            x.to_bits().hash(&mut h);
        }
    }
    h.finish()
}
