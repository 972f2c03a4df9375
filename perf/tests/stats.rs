//! The median/quartile helper.

use hxperf::stats::{median, quantile, Summary};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn quartiles_interpolate_between_order_statistics() {
    // Seven repetitions: positions 1.5 and 4.5 of the sorted sample.
    let s = Summary::of(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]);
    assert_eq!(
        (s.median, s.p25, s.p75, s.mean, s.n),
        (4.0, 2.5, 5.5, 4.0, 7)
    );
    assert!((s.spread() - 0.75).abs() < 1e-12);
    // Five repetitions land exactly on order statistics.
    let s = Summary::of(&[10.0, 50.0, 30.0, 20.0, 40.0]);
    assert_eq!((s.median, s.p25, s.p75), (30.0, 20.0, 40.0));
}

#[test]
fn extremes_are_the_zero_and_one_quantiles() {
    let v = [9.0, 2.0, 5.0];
    assert_eq!(quantile(&v, 0.0), 2.0);
    assert_eq!(quantile(&v, 1.0), 9.0);
    // 200 samples support a p99: between the 198th and 199th of 0..=199.
    let many: Vec<f64> = (0..200).map(f64::from).collect();
    assert!((quantile(&many, 0.99) - 197.01).abs() < 1e-9);
}

#[test]
fn a_constant_sample_has_no_spread_and_zero_median_does_not_divide() {
    assert_eq!(Summary::of(&[2.0; 7]).spread(), 0.0);
    assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
}
