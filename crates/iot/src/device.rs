//! Devices of the experimental network.

use crate::time::SimTime;
use std::fmt;

/// Device identifier (dense index into the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Role of a device in the experimental network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// The coordinator that starts the IEEE 802.15.4 network and collects
    /// reports (the paper's first device on the network).
    Coordinator,
    /// A trustor node device.
    Trustor,
    /// A trustee node device (honest or dishonest is the app's business).
    Trustee,
}

/// Per-device radio/energy accounting.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Time the radio spent transmitting.
    pub tx_time: SimTime,
    /// Time the radio spent receiving.
    pub rx_time: SimTime,
    /// Frames sent (including retries).
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Frames lost after exhausting retries.
    pub frames_lost: u64,
    /// Energy used, in microjoules.
    pub energy_uj: f64,
}

impl DeviceStats {
    /// Total radio-active time (tx + rx).
    pub fn active_time(&self) -> SimTime {
        self.tx_time + self.rx_time
    }
}

/// A device: identity, kind, position (meters) and counters.
#[derive(Debug, Clone)]
pub struct Device {
    /// The device id.
    pub id: DeviceId,
    /// Its role.
    pub kind: DeviceKind,
    /// Position in meters (the CC2530 radio reaches ~250 m).
    pub position: (f64, f64),
    /// Radio/energy counters.
    pub stats: DeviceStats,
}

impl Device {
    /// Creates a device at a position.
    pub fn new(id: DeviceId, kind: DeviceKind, position: (f64, f64)) -> Self {
        Device { id, kind, position, stats: DeviceStats::default() }
    }

    /// Euclidean distance to another device, in meters.
    pub fn distance_to(&self, other: &Device) -> f64 {
        let dx = self.position.0 - other.position.0;
        let dy = self.position.1 - other.position.1;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance() {
        let a = Device::new(DeviceId(0), DeviceKind::Coordinator, (0.0, 0.0));
        let b = Device::new(DeviceId(1), DeviceKind::Trustor, (3.0, 4.0));
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_active_time() {
        let s = DeviceStats {
            tx_time: SimTime::millis(2),
            rx_time: SimTime::millis(3),
            ..DeviceStats::default()
        };
        assert_eq!(s.active_time(), SimTime::millis(5));
    }

    #[test]
    fn display_and_index() {
        assert_eq!(DeviceId(4).to_string(), "dev4");
        assert_eq!(DeviceId(4).index(), 4);
    }
}
