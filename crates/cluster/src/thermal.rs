//! GPU thermal model (Figure 21, §5.2 "Failures Caused by High Temperature").
//!
//! Temperature is modelled as ambient plus a thermal resistance times power
//! draw. Memory (HBM) runs hotter than the core — exactly the Figure-21
//! observation — and a cooling-capacity knob reproduces the §5.2 episode:
//! the July 2023 heat wave raised the server-room ambient by ~5 °C, pushing
//! heavily loaded GPUs past 65 °C and triggering NVLink/ECC failures until
//! the cooling system was upgraded.

/// Core thermal resistance, °C/W.
const CORE_RESISTANCE: f64 = 0.068;
/// Memory runs hotter: extra resistance on top of the core path, °C/W.
const MEMORY_EXTRA_RESISTANCE: f64 = 0.016;

/// Maps GPU power draw to core/memory temperatures.
#[derive(Debug, Clone, Copy)]
pub struct ThermalModel {
    /// Server-room ambient at the GPU inlet, °C.
    pub ambient_c: f64,
    /// Cooling effectiveness multiplier: 1.0 = design point; > 1.0 after the
    /// cooling upgrade; < 1.0 during the heat wave.
    pub cooling_factor: f64,
}

impl ThermalModel {
    /// The design-point model.
    pub fn normal() -> Self {
        ThermalModel {
            ambient_c: 27.0,
            cooling_factor: 1.0,
        }
    }

    /// July-2023 heat wave: ambient up ~5 °C and reduced cooling headroom.
    pub fn heat_wave() -> Self {
        ThermalModel {
            ambient_c: 32.0,
            cooling_factor: 0.9,
        }
    }

    /// After the cooling-capability upgrade described in §5.2.
    pub fn upgraded_cooling() -> Self {
        ThermalModel {
            cooling_factor: 1.25,
            ..Self::normal()
        }
    }

    /// GPU core temperature for a given power draw, °C.
    pub fn core_temp_c(&self, power_w: f64) -> f64 {
        self.ambient_c + CORE_RESISTANCE * power_w / self.cooling_factor
    }

    /// GPU memory (HBM) temperature for a given power draw, °C.
    pub fn memory_temp_c(&self, power_w: f64) -> f64 {
        self.ambient_c + (CORE_RESISTANCE + MEMORY_EXTRA_RESISTANCE) * power_w / self.cooling_factor
    }

    /// Threshold above which the paper observes thermally induced
    /// NVLink/ECC errors.
    pub const OVERHEAT_THRESHOLD_C: f64 = 65.0;

    /// Multiplier on thermally sensitive hardware failure rates. 1.0 at or
    /// below the threshold, growing linearly ~8%/°C above it.
    pub fn failure_rate_multiplier(&self, power_w: f64) -> f64 {
        let t = self.memory_temp_c(power_w);
        if t <= Self::OVERHEAT_THRESHOLD_C {
            1.0
        } else {
            1.0 + 0.08 * (t - Self::OVERHEAT_THRESHOLD_C)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_hotter_than_core() {
        let m = ThermalModel::normal();
        for p in [60.0, 200.0, 400.0, 600.0] {
            assert!(m.memory_temp_c(p) > m.core_temp_c(p), "p = {p}");
        }
    }

    #[test]
    fn idle_gpu_stays_cool() {
        let m = ThermalModel::normal();
        assert!(m.core_temp_c(60.0) < 35.0);
        assert_eq!(m.failure_rate_multiplier(60.0), 1.0);
    }

    #[test]
    fn heavy_load_crosses_65c() {
        let m = ThermalModel::normal();
        // The paper observes heavily loaded GPUs above 65 °C (Figure 21).
        assert!(m.memory_temp_c(500.0) > 65.0);
        assert!(m.failure_rate_multiplier(520.0) > 1.0);
    }

    #[test]
    fn heat_wave_raises_ambient_by_5c() {
        let normal = ThermalModel::normal();
        let wave = ThermalModel::heat_wave();
        assert!((wave.ambient_c - normal.ambient_c - 5.0).abs() < 1e-9);
        // Under the heat wave, loads that were safe start overheating.
        let p = 420.0;
        assert_eq!(normal.failure_rate_multiplier(p), 1.0);
        assert!(wave.failure_rate_multiplier(p) > 1.0);
    }

    #[test]
    fn cooling_upgrade_reduces_temps() {
        let normal = ThermalModel::normal();
        let upgraded = ThermalModel::upgraded_cooling();
        assert!(upgraded.memory_temp_c(600.0) < normal.memory_temp_c(600.0));
    }

    #[test]
    fn failure_multiplier_kicks_in_above_threshold() {
        let m = ThermalModel::heat_wave();
        assert_eq!(m.failure_rate_multiplier(60.0), 1.0);
        let hot = m.failure_rate_multiplier(600.0);
        assert!(hot > 1.5, "multiplier = {hot}");
        // Monotone in power.
        assert!(m.failure_rate_multiplier(500.0) < hot);
    }
}
