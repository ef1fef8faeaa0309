//! The coordinator: first device on the network, answers association
//! requests and collects end-of-run reports over the serial-port
//! equivalent (§5.2).
//!
//! The paper's coordinator only collects: it records who joined and every
//! report a trustor sends, and sends nothing back beyond association
//! responses. The figures read the collected reports after the run; trust
//! itself lives in each trustor's own engine.

use crate::device::DeviceId;
use crate::frame::{Frame, Payload};
use crate::network::{Application, Ctx};
use crate::time::SimTime;
use std::any::Any;

/// One collected report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectedReport {
    /// When the report arrived.
    pub at: SimTime,
    /// The reporting trustor.
    pub reporter: DeviceId,
    /// The trustee that trustor selected.
    pub selected: DeviceId,
    /// The trustor's realized net profit.
    pub net_profit: f64,
}

/// Coordinator application state.
#[derive(Debug, Default)]
pub struct CoordinatorApp {
    /// Devices that completed association.
    pub joined: Vec<DeviceId>,
    /// Reports collected from trustors.
    pub reports: Vec<CollectedReport>,
}

impl CoordinatorApp {
    /// A fresh coordinator that has collected nothing yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Application for CoordinatorApp {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        match frame.payload {
            Payload::AssocRequest => {
                self.joined.push(frame.src);
                ctx.send(frame.src, Payload::AssocResponse);
            }
            Payload::Report { selected, net_profit } => {
                self.reports.push(CollectedReport {
                    at: ctx.now,
                    reporter: frame.src,
                    selected,
                    net_profit,
                });
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::network::IotNetwork;
    use crate::radio::RadioModel;
    use siot_core::task::TaskId;

    /// A device that associates and then reports.
    struct Reporter;

    impl Application for Reporter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(DeviceId(0), Payload::AssocRequest);
            ctx.set_timer(SimTime::millis(50), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
            ctx.send(DeviceId(0), Payload::Report { selected: DeviceId(9), net_profit: 0.42 });
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn coordinator_collects_joins_and_reports() {
        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord =
            net.add_device(DeviceKind::Coordinator, (0.0, 0.0), Box::new(CoordinatorApp::new()));
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &CoordinatorApp = net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        for r in &app.reports {
            assert_eq!(r.selected, DeviceId(9));
            assert!((r.net_profit - 0.42).abs() < 1e-12);
            assert!(r.at > SimTime::ZERO);
        }
    }

    #[test]
    fn coordinator_ignores_unrelated_frames() {
        let mut net = IotNetwork::new(4);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        struct Noise;
        impl Application for Noise {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(DeviceId(0), Payload::TaskRequest { task: TaskId(0) });
                ctx.send(DeviceId(0), Payload::Raw(32));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let coord =
            net.add_device(DeviceKind::Coordinator, (0.0, 0.0), Box::new(CoordinatorApp::new()));
        net.add_device(DeviceKind::Trustor, (5.0, 0.0), Box::new(Noise));
        net.start();
        net.run_to_idle();
        let app: &CoordinatorApp = net.app_as(coord).unwrap();
        assert!(app.joined.is_empty());
        assert!(app.reports.is_empty());
    }
}
