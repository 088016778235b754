"""Detector and physics constants for the CdTe Timepix3 Compton camera."""

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
#: coinciding products measured at opposite faces of the sensor, so window
#: times drift speed spans the sensor thickness.
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

