//! Physical and simulation units shared by every crate in the
//! whole-system-persistence (WSP) reproduction.
//!
//! The WSP paper reasons about quantities from several domains at once:
//! simulated time (cache-flush latencies in nanoseconds, residual energy
//! windows in milliseconds), data sizes (cache capacities, NVDIMM
//! capacities), electrical quantities (PSU capacitance, ultracapacitor
//! energy, system power draw), and transfer rates (memory and flash
//! bandwidth). Mixing those up as bare `f64`/`u64` values is exactly the
//! class of bug a simulator cannot afford, so each quantity gets a newtype
//! with only the physically meaningful operators defined
//! ([`Joules`] ÷ [`Watts`] → [`Nanos`], [`ByteSize`] ÷ [`Bandwidth`] →
//! [`Nanos`], and so on).
//!
//! # Examples
//!
//! Compute how long a PSU's stored energy can carry a given load — the
//! heart of the paper's residual-energy-window argument:
//!
//! ```
//! use wsp_units::{Farads, Volts, Watts};
//!
//! let cap = Farads::new(0.047);          // effective output capacitance
//! let energy = cap.energy_between(Volts::new(12.0), Volts::new(11.4));
//! let window = energy / Watts::new(250.0);
//! assert!(window.as_millis_f64() > 1.0);
//! ```
//!
//! Convert a data size and a bandwidth into a transfer time — the
//! "theoretical best" cache flush of Table 2:
//!
//! ```
//! use wsp_units::{Bandwidth, ByteSize};
//!
//! let cache = ByteSize::mib(16);
//! let bus = Bandwidth::gib_per_sec(21.0);
//! let best = cache / bus;
//! assert!(best.as_millis_f64() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod electrical;
pub mod fasthash;
mod hist;
mod size;
mod stats;
mod time;

pub use bandwidth::Bandwidth;
pub use hist::LatencyHistogram;
pub use electrical::{Farads, Joules, Volts, Watts};
pub use size::ByteSize;
pub use stats::{OnlineStats, Summary};
pub use time::{Nanos, SimClock};
