//! The benchmark's output checks must pass on a real result and fail when
//! one number of it is wrong.

use datagen::random_tensor;
use hooi::{PlanOptions, TuckerConfig, TuckerDecomposition, TuckerSolver};
use perfbench::checks::{
    check_fits_monotone, check_orthonormal, check_predictions, check_solve, fingerprint,
    model_value, tensor_norm,
};
use sptensor::SparseTensor;

fn solved() -> (SparseTensor, TuckerDecomposition) {
    let tensor = random_tensor(&[30, 24, 18], 1_500, 11);
    let dec = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1))
        .and_then(|mut s| s.solve(&TuckerConfig::new(vec![3, 3, 2]).max_iterations(3)))
        .expect("solve");
    (tensor, dec)
}

#[test]
fn a_real_result_passes_every_check() {
    let (tensor, dec) = solved();
    check_solve(&tensor, tensor_norm(&tensor), &dec).expect("a real solve passes");
    let indices = vec![vec![0, 0, 0], vec![29, 23, 17], vec![5, 7, 9]];
    let values = dec.predict_many(&indices);
    check_predictions(&dec, &indices, &values).expect("real predictions pass");
}

#[test]
fn a_corrupted_factor_entry_fails() {
    let (tensor, mut dec) = solved();
    let u = &mut dec.factors[1];
    let (r, c) = (u.nrows() / 2, 1);
    u.row_mut(r)[c] += 1e-4;
    assert!(check_orthonormal(&dec.factors).is_err());
    assert!(check_solve(&tensor, tensor_norm(&tensor), &dec).is_err());
}

#[test]
fn a_perturbed_core_value_fails() {
    let (tensor, mut dec) = solved();
    let x_norm = tensor_norm(&tensor);
    dec.core.as_mut_slice()[4] += 1e-6 * x_norm;
    let err = check_solve(&tensor, x_norm, &dec).expect_err("perturbed core");
    assert!(err.contains("core"), "{err}");
}

#[test]
fn a_wrong_reported_fit_fails() {
    let (tensor, mut dec) = solved();
    *dec.fits.last_mut().expect("fits") += 1e-6;
    let err = check_solve(&tensor, tensor_norm(&tensor), &dec).expect_err("wrong fit");
    assert!(err.contains("fit"), "{err}");
}

#[test]
fn a_falling_fit_fails() {
    assert!(check_fits_monotone(&[0.1, 0.2, 0.2]).is_ok());
    assert!(check_fits_monotone(&[0.1, 0.2, 0.19]).is_err());
}

#[test]
fn a_wrong_predict_value_fails() {
    let (_, dec) = solved();
    let indices = vec![vec![1, 2, 3], vec![4, 5, 6]];
    let mut values = dec.predict_many(&indices);
    let (_, scale) = model_value(&dec.core, &dec.factors, &indices[1]);
    values[1] += 1e-6 * scale;
    assert!(check_predictions(&dec, &indices, &values).is_err());
}

#[test]
fn fingerprints_see_one_changed_bit() {
    let (_, dec) = solved();
    let mut other = dec.clone();
    let x = &mut other.factors[0].as_mut_slice()[0];
    *x = f64::from_bits(x.to_bits() ^ 1);
    assert_eq!(fingerprint(&dec), fingerprint(&dec.clone()));
    assert_ne!(fingerprint(&dec), fingerprint(&other));
}
