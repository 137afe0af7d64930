//! Helpers shared by the filter implementations.

use crate::error::FilterError;
use crate::sample::Signal;
use crate::segment::Segment;

use super::StreamFilter;

/// Compresses a whole in-memory [`Signal`] through `filter`, returning the
/// emitted segments. Convenience wrapper over the streaming API used by
/// tests, examples, and the experiment harness.
pub fn run_filter<F: StreamFilter + ?Sized>(
    filter: &mut F,
    signal: &Signal,
) -> Result<Vec<Segment>, FilterError> {
    let mut out: Vec<Segment> = Vec::new();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut out)?;
    }
    filter.finish(&mut out)?;
    Ok(out)
}

/// Builds a degenerate single-point segment (used when a stream ends with
/// an interval holding one lone sample).
pub(crate) fn point_segment(t: f64, x: &[f64], connected: bool) -> Segment {
    Segment {
        t_start: t,
        x_start: x.into(),
        t_end: t,
        x_end: x.into(),
        connected,
        n_points: 1,
        new_recordings: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_segment_is_degenerate() {
        let s = point_segment(2.0, &[1.0, -1.0], false);
        assert_eq!(s.t_start, s.t_end);
        assert_eq!(s.n_points, 1);
        assert_eq!(s.new_recordings, 1);
        assert_eq!(s.eval(2.0, 1), -1.0);
    }
}
