//! The transformation-filter abstraction.
//!
//! §2.4: "Transformation filters input a group of packets, perform
//! some type of data transformation on the data contained in the
//! packets and output one or more packets. … Transformation operations
//! must be synchronous, but can carry state from one transformation to
//! the next using static storage structures."
//!
//! [`Transform`] is the Rust rendering of the paper's filter-function
//! signature
//! `void filter(vector<Packet*>& in, vector<Packet*>& out, void** clientData)`:
//! `&mut self` carries the client-data state, the return value is the
//! output packet vector.

use mrnet_packet::{FormatString, Packet, Rank, StreamId};

use crate::error::{FilterError, Result};

/// Ambient information a filter may consult while transforming.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterContext {
    /// The stream the packets belong to.
    pub stream_id: StreamId,
    /// The rank of the process running the filter.
    pub local_rank: Rank,
    /// Number of direct children feeding this filter instance (0 at a
    /// back-end).
    pub num_children: usize,
}

impl FilterContext {
    /// Builds a context.
    pub fn new(stream_id: StreamId, local_rank: Rank, num_children: usize) -> FilterContext {
        FilterContext {
            stream_id,
            local_rank,
            num_children,
        }
    }
}

/// A transformation filter instance, private to one stream on one
/// process (state is per-stream, as in the paper).
pub trait Transform: Send {
    /// The registered name of this filter.
    fn name(&self) -> &str;

    /// The packet format this filter accepts, or `None` for
    /// type-independent filters (e.g. the null filter).
    fn input_format(&self) -> Option<&FormatString>;

    /// Consumes one synchronized wave of input packets, producing zero
    /// or more output packets.
    fn transform(&mut self, inputs: Vec<Packet>, ctx: &FilterContext) -> Result<Vec<Packet>>;
}

/// A boxed transformation filter.
pub type BoxedTransform = Box<dyn Transform>;

/// Checks every input against the filter's required format. A match
/// builds no format; only the error names the one received.
pub fn check_wave_format(fmt: &FormatString, inputs: &[Packet]) -> Result<()> {
    for p in inputs {
        if fmt.check(p.values()).is_err() {
            return Err(FilterError::FormatMismatch {
                expected: fmt.to_string(),
                actual: p.fmt().to_string(),
            });
        }
    }
    Ok(())
}

/// The null filter: forwards every input packet unchanged. Streams
/// with no aggregation use this.
#[derive(Debug, Default)]
pub struct NullFilter;

impl Transform for NullFilter {
    fn name(&self) -> &str {
        "null"
    }

    fn input_format(&self) -> Option<&FormatString> {
        None
    }

    fn transform(&mut self, inputs: Vec<Packet>, _ctx: &FilterContext) -> Result<Vec<Packet>> {
        Ok(inputs)
    }
}

/// Adapts a plain function (plus optional state) into a [`Transform`];
/// the ergonomic way for tool developers to supply custom filters.
///
/// ```
/// use mrnet_filters::{FnFilter, Transform, FilterContext};
/// use mrnet_packet::{FormatString, Packet, PacketBuilder, Value};
///
/// // A filter that counts packets it has seen (carrying state between
/// // waves, like the paper's clientData).
/// let fmt = FormatString::parse("%d").unwrap();
/// let mut filter = FnFilter::new("count", Some(fmt), 0u64, |state, inputs, _ctx| {
///     *state += inputs.len() as u64;
///     let first = inputs.into_iter().next().unwrap();
///     Ok(vec![PacketBuilder::new(first.stream_id(), first.tag())
///         .push(*state as i32)
///         .build()])
/// });
/// let ctx = FilterContext::new(1, 0, 2);
/// let wave = vec![PacketBuilder::new(1, 0).push(5i32).build()];
/// let out = filter.transform(wave, &ctx).unwrap();
/// assert_eq!(out[0].get(0).unwrap().as_i32(), Some(1));
/// ```
pub struct FnFilter<S> {
    name: String,
    fmt: Option<FormatString>,
    state: S,
    func: FilterFn<S>,
}

type FilterFn<S> =
    Box<dyn FnMut(&mut S, Vec<Packet>, &FilterContext) -> Result<Vec<Packet>> + Send>;

impl<S: Send> FnFilter<S> {
    /// Wraps `func` with initial state `state`.
    pub fn new(
        name: impl Into<String>,
        fmt: Option<FormatString>,
        state: S,
        func: impl FnMut(&mut S, Vec<Packet>, &FilterContext) -> Result<Vec<Packet>> + Send + 'static,
    ) -> FnFilter<S> {
        FnFilter {
            name: name.into(),
            fmt,
            state,
            func: Box::new(func),
        }
    }
}

impl<S: Send> Transform for FnFilter<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_format(&self) -> Option<&FormatString> {
        self.fmt.as_ref()
    }

    fn transform(&mut self, inputs: Vec<Packet>, ctx: &FilterContext) -> Result<Vec<Packet>> {
        if let Some(fmt) = &self.fmt {
            check_wave_format(fmt, &inputs)?;
        }
        (self.func)(&mut self.state, inputs, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_packet::PacketBuilder;

    fn ctx() -> FilterContext {
        FilterContext::new(7, 3, 4)
    }

    #[test]
    fn null_filter_passes_through() {
        let mut f = NullFilter;
        let wave = vec![
            PacketBuilder::new(7, 1).push(1i32).build(),
            PacketBuilder::new(7, 1).push("two").build(),
        ];
        let out = f.transform(wave.clone(), &ctx()).unwrap();
        assert_eq!(out, wave);
        assert_eq!(f.name(), "null");
        assert!(f.input_format().is_none());
    }

    #[test]
    fn check_wave_format_rejects_mixed() {
        let fmt = FormatString::parse("%d").unwrap();
        let wave = vec![
            PacketBuilder::new(0, 0).push(1i32).build(),
            PacketBuilder::new(0, 0).push(1.5f32).build(),
        ];
        let err = check_wave_format(&fmt, &wave).expect_err("mixed wave");
        assert!(matches!(err, FilterError::FormatMismatch { .. }));
    }

    #[test]
    fn format_mismatch_names_both_formats() {
        let fmt = FormatString::parse("%d %lf").unwrap();
        let ok = PacketBuilder::new(0, 0).push(1i32).push(2.0f64).build();
        let short = PacketBuilder::new(0, 0).push(1i32).build();
        let swapped = PacketBuilder::new(0, 0).push(2.0f64).push(1i32).build();
        check_wave_format(&fmt, std::slice::from_ref(&ok)).unwrap();
        let msg = |p: &Packet| {
            check_wave_format(&fmt, &[ok.clone(), p.clone()])
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            msg(&short),
            "filter expects packets of format `%d %lf` but received `%d`"
        );
        assert_eq!(
            msg(&swapped),
            "filter expects packets of format `%d %lf` but received `%lf %d`"
        );
    }

    #[test]
    fn fn_filter_carries_state_between_waves() {
        let fmt = FormatString::parse("%d").unwrap();
        let mut f = FnFilter::new("sum-count", Some(fmt), 0i64, |state, inputs, _| {
            for p in &inputs {
                *state += i64::from(p.get(0).unwrap().as_i32().unwrap());
            }
            let sid = inputs[0].stream_id();
            Ok(vec![PacketBuilder::new(sid, 0).push(*state).build()])
        });
        let mk = |v: i32| PacketBuilder::new(1, 0).push(v).build();
        let out1 = f.transform(vec![mk(1), mk(2)], &ctx()).unwrap();
        assert_eq!(out1[0].get(0).unwrap().as_i64(), Some(3));
        let out2 = f.transform(vec![mk(10)], &ctx()).unwrap();
        assert_eq!(out2[0].get(0).unwrap().as_i64(), Some(13));
    }

    #[test]
    fn fn_filter_enforces_format() {
        let fmt = FormatString::parse("%d").unwrap();
        let mut f = FnFilter::new("strict", Some(fmt), (), |_, inputs, _| Ok(inputs));
        let bad = vec![PacketBuilder::new(0, 0).push(1.0f64).build()];
        assert!(f.transform(bad, &ctx()).is_err());
    }

    #[test]
    fn untyped_fn_filter_accepts_anything() {
        let mut f = FnFilter::new("loose", None, (), |_, inputs, _| Ok(inputs));
        let mixed = vec![
            PacketBuilder::new(0, 0).push(1i32).build(),
            PacketBuilder::new(0, 0).push("str").build(),
        ];
        assert_eq!(f.transform(mixed.clone(), &ctx()).unwrap(), mixed);
    }
}
