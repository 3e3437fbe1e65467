//! Order statistics, computed the way Python's `statistics` module does,
//! so numbers printed here match a reader's own check.

/// The median of `values` (the mean of the middle two for an even count).
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The first and third quartiles of `values`, as
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them. A single value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            // Python's exclusive method: position i·(len+1)/4, clamped to
            // the interior, so two values extrapolate past their ends.
            let m = len as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Expected values from `statistics.quantiles(range(1, n+1), n=4)`.
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }
}
