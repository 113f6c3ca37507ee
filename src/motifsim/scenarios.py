"""Bundled scenario models.

Each scenario is a complete model text, which `lang.load` builds.
`BUNDLED` maps the four scenarios' names to their texts;
`THERMOSTAT_DELIBERATIVE` is the thermostat with its heater run by the
agent loop.  The texts are canonical (printing the parsed model
reproduces them byte for byte), which the round-trip tests rely on.
"""

THERMOSTAT = """\
type heater agent {
  controller {
    modes off, on init off;
    from off to on if room.temp <= 18.0;
    from on to off if room.temp >= 22.0;
  }
}

type space object {
  var temp: real[17.0, 23.0] step 0.5;
  dynamics {
    rule cool for h: heater if h.mode = off and self.temp > 17.0 then { self.temp := self.temp - 0.5; }
    rule warm for h: heater if h.mode = on and self.temp < 23.0 then { self.temp := self.temp + 0.5; }
  }
}

motif house {
  map line(2);
}

component h1: heater in house at 0;

component room: space { temp = 20.0; } in house at 1;

goal band critical avoid (room.temp < 17.5 or room.temp > 22.5) priority 0;

scenario {
  steps 10000;
  seed 0;
  policy random;
  check inband always (room.temp >= 17.5 and room.temp <= 22.5);
}
"""

# deliberative variant: the heater runs the full agent loop and plans on
# its believed model instead of letting the scheduler fire its automaton
THERMOSTAT_DELIBERATIVE = THERMOSTAT.replace(
    """scenario {
  steps 10000;""",
    """agent h1 {
  sensor {
    radius inf;
    see heater;
    see space [temp];
    identity on;
    detect 1.0;
  }
  goals band;
  horizon 3;
}

scenario {
  steps 300;""")

PLATOON = """\
type vehicle agent {
  var speed: int[0, 3];
}

motif road {
  map line(30);
  config rule advance for a: vehicle if empty(succ(@(a))) then { @(a) := succ(@(a)); }
  config rule form for a: vehicle, b: vehicle if member(a, platoon) and not member(b, platoon) and distance(@(b), @(a)) <= 2 then { join(b, platoon); b.speed := a.speed; }
}

motif platoon {
  map line(30);
}

component v1: vehicle { speed = 3; } in road at 0;

component v2: vehicle { speed = 1; } in road at 2;

component v3: vehicle { speed = 0; } in road at 4;

component v4: vehicle { speed = 2; } in road at 6 in platoon at 6;

scenario {
  steps 1000;
  seed 0;
  policy random;
  check gap12 always (@(v1, road) != @(v2, road));
  check gap13 always (@(v1, road) != @(v3, road));
  check gap14 always (@(v1, road) != @(v4, road));
  check gap23 always (@(v2, road) != @(v3, road));
  check gap24 always (@(v2, road) != @(v4, road));
  check gap34 always (@(v3, road) != @(v4, road));
  check sync1 always (not member(v1, platoon) or v1.speed = v4.speed);
  check sync2 always (not member(v2, platoon) or v2.speed = v4.speed);
  check sync3 always (not member(v3, platoon) or v3.speed = v4.speed);
  check formed finally (member(v3, platoon));
}
"""

SOCCER = """\
type player agent {
}

type ball object {
  var owner: enum {us, them};
}

motif field {
  map grid(5, 3);
  config rule steal for b: ball if b.owner = us then { b.owner := them; migrate(p1, attack, defense); migrate(p2, attack, defense); }
  config rule regain for b: ball if b.owner = them then { b.owner := us; migrate(p1, defense, attack); migrate(p2, defense, attack); }
}

motif attack {
  map grid(5, 3);
}

motif defense {
  map grid(5, 3);
}

component ball1: ball { owner = us; } in field at 7;

component p1: player in field at 1 in attack;

component p2: player in field at 3 in attack;

scenario {
  steps 500;
  seed 0;
  policy random;
  check partition1 always ((member(p1, attack) or member(p1, defense)) and not (member(p1, attack) and member(p1, defense)));
  check partition2 always ((member(p2, attack) or member(p2, defense)) and not (member(p2, attack) and member(p2, defense)));
  check aligned1 always (ball1.owner != us or member(p1, attack));
  check aligned2 always (ball1.owner != them or member(p1, defense));
}
"""

SHUTTLE = """\
type shuttle object {
  var laps: int[0, 100000];
  dynamics {
    rule go then { @(self) := succ(@(self)); self.laps := self.laps + 1; }
  }
}

motif route {
  map ring(6);
}

component bus: shuttle in route at 0;

scenario {
  steps 100;
  seed 0;
  policy random;
  check onroute always (placed(bus, route));
}
"""


BUNDLED = {"thermostat": THERMOSTAT, "platoon": PLATOON, "soccer": SOCCER,
           "shuttle": SHUTTLE}
