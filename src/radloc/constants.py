"""Detector and physics constants for the CdTe Timepix3 Compton camera."""

from __future__ import annotations

from dataclasses import dataclass

#: Electron rest energy m_e * c^2 in keV (m_e = 9.10938356e-31 kg,
#: c = 299792458 m/s). All energy math in this package is keV-native;
#: the scattering-angle formula is invariant under a common energy rescale.
ELECTRON_REST_ENERGY_KEV = 511.0

#: Charge-gathering (drift) speed through the 2 mm CdTe sensor at 450 V
#: bias, in micrometers per nanosecond.
CHARGE_GATHERING_SPEED_UM_PER_NS = 23.256

#: Sensor thickness in mm.
SENSOR_THICKNESS_MM = 2.0

#: Coincidence window in ns: the maximum time-of-arrival difference of two
#: coinciding products measured at opposite faces of the sensor.
COINCIDENCE_WINDOW_NS = 86.0

#: Timepix3 pixel pitch in mm.
PIXEL_PITCH_MM = 0.055

#: Pixel matrix size (square).
SENSOR_PIXELS = 256

#: Background threshold in keV: a track or pair whose summed energy lies
#: above it is too energetic for the source isotope.
BACKGROUND_THRESHOLD_KEV = 800.0

#: Largest time-of-arrival gap in ns between chained hits of one track.
CLUSTER_TOA_GAP_NS = 100.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of sensor physics constants.

    The defaults describe the 2 mm CdTe sensor biased at 450 V. The
    charge-gathering speed and sensor thickness must be mutually
    consistent with the coincidence window: drifting the full thickness
    takes ``sensor_thickness / charge_gathering_speed`` nanoseconds.
    """

    electron_rest_energy: float = ELECTRON_REST_ENERGY_KEV  # keV
    charge_gathering_speed: float = CHARGE_GATHERING_SPEED_UM_PER_NS  # um/ns
    sensor_thickness: float = SENSOR_THICKNESS_MM  # mm
    bias_voltage: float = 450.0  # V, informational
    coincidence_window: float = COINCIDENCE_WINDOW_NS  # ns

    def __post_init__(self) -> None:
        if self.electron_rest_energy <= 0:
            raise ValueError("electron_rest_energy must be positive")
        if self.charge_gathering_speed <= 0 or self.sensor_thickness <= 0:
            raise ValueError("sensor geometry constants must be positive")
        # window * drift speed must span the sensor thickness (0.1 % slack)
        spanned_mm = self.charge_gathering_speed * self.coincidence_window * 1e-3
        if abs(spanned_mm - self.sensor_thickness) > 1e-3 * self.sensor_thickness:
            raise ValueError(
                "coincidence window inconsistent with drift speed and thickness: "
                f"{spanned_mm:.6f} mm spanned vs {self.sensor_thickness} mm"
            )


DEFAULT_CONSTANTS = PhysicalConstants()
