// RTS skirmish: two armies close distance and fight. Demonstrates the full
// architecture of the paper — scripted targeting via an accum maxby join,
// movement intentions flowing as avg-combined effects into a physics update
// component that owns the position attributes (§2.2), reactive low-health
// handlers, and the spatial index the targeting join's predicate shape names
// (a grid over the armies as they march and then melee).
package main

import (
	"fmt"
	"log"

	sgl "repro"
	"repro/internal/core"
	"repro/internal/physics"
	"repro/internal/workload"
)

func main() {
	game, err := sgl.Load(core.SrcRTS)
	if err != nil {
		log.Fatal(err)
	}
	world, err := game.NewWorld(sgl.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	err = world.Register(physics.New2D(physics.Config{
		Class: "Soldier", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy",
		Radius: 0.8, MaxSpeed: 2,
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 400, MaxY: 400},
	}))
	if err != nil {
		log.Fatal(err)
	}

	// Two armies of 300 in opposite corners; both march to the middle.
	blue := workload.Clustered(300, 1, 25, 120, 120, 1)
	red := workload.Clustered(300, 1, 25, 120, 120, 2)
	var ids []sgl.ID
	for i := 0; i < 300; i++ {
		b, err := world.Spawn("Soldier", map[string]sgl.Value{
			"player": sgl.Str("blue"),
			"x":      sgl.Num(blue[i].X), "y": sgl.Num(blue[i].Y),
			"tx": sgl.Num(200), "ty": sgl.Num(200),
		})
		if err != nil {
			log.Fatal(err)
		}
		r, err := world.Spawn("Soldier", map[string]sgl.Value{
			"player": sgl.Str("red"),
			"x":      sgl.Num(280 + red[i].X), "y": sgl.Num(280 + red[i].Y),
			"tx": sgl.Num(200), "ty": sgl.Num(200),
		})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, b, r)
	}

	casualties := func() (alive0, alive1 int) {
		for _, id := range ids {
			hp, ok := world.Get("Soldier", id, "health")
			if !ok || hp.AsNumber() <= 0 {
				continue
			}
			if world.MustGet("Soldier", id, "player").AsString() == "blue" {
				alive0++
			} else {
				alive1++
			}
		}
		return
	}

	for phase := 0; phase < 6; phase++ {
		if err := world.Run(25); err != nil {
			log.Fatal(err)
		}
		// Remove the fallen between ticks.
		for _, id := range ids {
			if hp, ok := world.Get("Soldier", id, "health"); ok && hp.AsNumber() <= 0 {
				world.Kill("Soldier", id)
			}
		}
		a0, a1 := casualties()
		fmt.Printf("tick %3d: blue %3d alive, red %3d alive\n", world.Tick(), a0, a1)
	}
	for _, s := range world.SiteStrategies() {
		fmt.Println("final plan:", s)
	}
}
