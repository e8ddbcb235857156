"""The wider OpenSteer behavior library (Reynolds, GDC 1999).

§5.3: "OpenSteer ... provides simple steering behaviors and a basic agent
implementation", and §5.1 names fleeing as a canonical action.  The Boids
scenario only exercises flocking, but the library the paper integrates
with carries the full Reynolds repertoire; reproducing it makes the
substrate genuinely reusable (and gives the examples a second scenario).

Every behavior is a pure function from agent state to a steering vector,
interpreted exactly as §5.1 prescribes: direction = desired movement,
length = acceleration.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.steer.vec3 import Vec3


def seek(position: Vec3, velocity: Vec3, target: Vec3, max_speed: float) -> Vec3:
    """Steer toward a static target at full speed."""
    desired = (target - position).normalize() * max_speed
    return desired - velocity


def flee(position: Vec3, velocity: Vec3, threat: Vec3, max_speed: float) -> Vec3:
    """Steer directly away from a static threat ("flee from another
    agent", §5.1)."""
    desired = (position - threat).normalize() * max_speed
    return desired - velocity


def _predict_interception(
    position: Vec3, target_pos: Vec3, target_vel: Vec3, max_speed: float
) -> Vec3:
    """Linear prediction of where a moving target will be."""
    offset = target_pos - position
    lead_time = offset.length() / max(max_speed, 1e-12)
    return target_pos + target_vel * lead_time


def pursue(
    position: Vec3,
    velocity: Vec3,
    target_pos: Vec3,
    target_vel: Vec3,
    max_speed: float,
) -> Vec3:
    """Seek the target's *predicted* position."""
    return seek(
        position,
        velocity,
        _predict_interception(position, target_pos, target_vel, max_speed),
        max_speed,
    )


def evade(
    position: Vec3,
    velocity: Vec3,
    threat_pos: Vec3,
    threat_vel: Vec3,
    max_speed: float,
) -> Vec3:
    """Flee the threat's predicted position."""
    return flee(
        position,
        velocity,
        _predict_interception(position, threat_pos, threat_vel, max_speed),
        max_speed,
    )


def arrival(
    position: Vec3,
    velocity: Vec3,
    target: Vec3,
    max_speed: float,
    slowing_distance: float,
) -> Vec3:
    """Seek that decelerates inside the slowing radius and stops on the
    target (Reynolds' "arrival")."""
    offset = target - position
    distance = offset.length()
    if distance < 1e-12:
        return -velocity  # park
    ramped = max_speed * (distance / slowing_distance)
    clipped = min(ramped, max_speed)
    desired = offset * (clipped / distance)
    return desired - velocity


class Wander:
    """Reynolds' wander: a random walk on a sphere projected ahead of the
    agent — smooth, lifelike meandering.  Stateful (the wander point
    persists between steps), deterministic given the seed."""

    def __init__(
        self,
        wander_radius: float = 1.0,
        wander_distance: float = 2.0,
        jitter: float = 0.3,
        seed: int | None = None,
    ) -> None:
        self.wander_radius = wander_radius
        self.wander_distance = wander_distance
        self.jitter = jitter
        self._rng = make_rng(seed)
        self._point = Vec3(1.0, 0.0, 0.0)

    def __call__(self, forward: Vec3) -> Vec3:
        j = self._rng.uniform(-1.0, 1.0, size=3) * self.jitter
        self._point = (
            self._point + Vec3(float(j[0]), float(j[1]), float(j[2]))
        ).normalize() * self.wander_radius
        circle_center = forward * self.wander_distance
        return circle_center + self._point


def avoid_sphere(
    position: Vec3,
    forward: Vec3,
    speed: float,
    obstacle_center: Vec3,
    obstacle_radius: float,
    agent_radius: float,
    lookahead_s: float,
) -> Vec3:
    """Spherical obstacle avoidance: if the swept path intersects the
    (inflated) obstacle, push laterally away from its center."""
    min_clearance = obstacle_radius + agent_radius
    to_center = obstacle_center - position
    along = to_center.dot(forward)
    if along <= 0 or along > speed * lookahead_s + min_clearance:
        return Vec3()  # behind us, or too far ahead to matter
    lateral = to_center.perpendicular_component(forward)
    if lateral.length() >= min_clearance:
        return Vec3()  # the path misses
    if lateral.length_squared() < 1e-18:
        # Dead-center: pick any perpendicular escape direction.
        up_hint = Vec3(0, 1, 0) if abs(forward.y) < 0.99 else Vec3(1, 0, 0)
        lateral = forward.cross(up_hint)
    return -lateral.normalize() * (min_clearance - 0.0)


def follow_path(
    position: Vec3,
    velocity: Vec3,
    waypoints: "list[Vec3]",
    current_index: int,
    arrive_radius: float,
    max_speed: float,
) -> "tuple[Vec3, int]":
    """Waypoint path following: seek the current waypoint, advance when
    inside the arrival radius.  Returns (steering, next_index)."""
    if not waypoints:
        return Vec3(), current_index
    index = min(current_index, len(waypoints) - 1)
    target = waypoints[index]
    if position.distance(target) <= arrive_radius and index + 1 < len(waypoints):
        index += 1
        target = waypoints[index]
    if index == len(waypoints) - 1:
        steering = arrival(
            position, velocity, target, max_speed, slowing_distance=arrive_radius * 4
        )
    else:
        steering = seek(position, velocity, target, max_speed)
    return steering, index
