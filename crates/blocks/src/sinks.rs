//! Recording sinks.

use ecl_sim::{impl_block_any, Block, EventCtx, PortSpec, TimeNs};

/// An event-driven scope: records `(instant, value)` of its input at every
/// activation.
///
/// For continuous recording at the integration rate, use
/// [`Model::probe`](ecl_sim::Model::probe) instead; `Scope` is the
/// Scicos-faithful *sampled* recorder driven by an activation clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scope {
    samples: Vec<(TimeNs, f64)>,
}

impl Scope {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Scope::default()
    }

    /// The recorded `(instant, value)` samples.
    pub fn samples(&self) -> &[(TimeNs, f64)] {
        &self.samples
    }

    /// The recorded values only.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// The recorded instants only.
    pub fn times(&self) -> Vec<TimeNs> {
        self.samples.iter().map(|&(t, _)| t).collect()
    }
}

impl Block for Scope {
    fn type_name(&self) -> &'static str {
        "Scope"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(1, 0, 1, 0)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn feedthrough(&self, _input: usize) -> bool {
        false
    }
    fn on_event(&mut self, _port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
        self.samples.push((t, ctx.inputs[0]));
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_sim::EventActions;

    #[test]
    fn scope_records_on_activation() {
        let mut s = Scope::new();
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            let mut actions = EventActions::new();
            let mut ctx = EventCtx {
                inputs: &[*v],
                actions: &mut actions,
            };
            s.on_event(0, TimeNs::from_millis(i as i64), &mut ctx);
        }
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(
            s.times(),
            vec![TimeNs::ZERO, TimeNs::from_millis(1), TimeNs::from_millis(2)]
        );
        assert_eq!(s.samples().len(), 3);
    }

    #[test]
    fn default_is_empty() {
        assert!(Scope::default().samples().is_empty());
    }
}
