//! The result line every run ends with.

/// One reported metric: name, value, unit.
pub type Reported = (String, f64, &'static str);

/// The one-line JSON object the benchmark's caller reads: whether the
/// outputs were correct, cells attempted and failed, and the metrics.
/// Fails on a value JSON cannot carry.
pub fn result_line(
    attempted: usize,
    failed: usize,
    metrics: &[Reported],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}
