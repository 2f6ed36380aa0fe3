"""Exact-arithmetic laminations of the angle-tripling map.

Builds the dense family of co-periodic comajor leaves block period by
block period, certifies every leaf with an independent legality oracle,
constructs finite pullback prelaminations for legal pairs, and renders
chord families as SVG.
"""

from .angles import Angle, OrbitInfo, antipode, in_open_arc, make_angle, orbit_info, tripling
from .builder import BuildState, ComajorRecord, build, nesting_audit, seed_leaves
from .chords import Chord, LengthClass, classify, crosses, image, length, majors_of, under
from .legality import LegalityVerdict, is_comajor, is_legal_pair
from .orbits import ChordOrbit, PeriodicClass, chord_orbit, classify_periodic, periodic_points, preperiod1_points
from .pullback import Prelamination, build_prelamination, hyperbolic_prune
from .render import RenderConfig, render_svg

__version__ = "0.1.0"
