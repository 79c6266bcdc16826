// Degraded comms: a three-UAV SAR mission flown over a faulty C2 link.
// A seeded link layer duplicates the occasional telemetry frame on
// every channel and severs u2's link completely for 40 s mid-mission.
// The ground station's staleness tracker surfaces the growing
// telemetry age, the lost-link watchdog fires the return-to-base
// contingency after 15 s of silence, u2's search task is redistributed
// to the survivors, and the mission completes — with every lost frame
// accounted for. Running the program twice prints identical output:
// the fault layer is deterministic given the world seed.
package main

import (
	"fmt"
	"log"
	"strings"

	"sesame"
)

func main() {
	home := sesame.LatLng{Lat: 35.1856, Lng: 33.3823}
	world := sesame.NewWorld(home, 42)
	for _, id := range []string{"u1", "u2", "u3"} {
		if _, err := world.AddUAV(sesame.UAVConfig{ID: id, Home: home, CruiseSpeedMS: 12}); err != nil {
			log.Fatal(err)
		}
	}
	platform, err := sesame.NewPlatform(world, nil, sesame.DefaultPlatformConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	// The link layer sits between the UAVs and the ground station: bus
	// telemetry and broker alerts for a UAV cross its configured link.
	links, err := platform.AttachLinks("field", true)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []string{"u1", "u2", "u3"} {
		links.Link(id).SetProfile(sesame.LinkProfile{DupProb: 0.08})
	}

	area := sesame.Polygon{
		sesame.Destination(home, 45, 80),
		sesame.Destination(sesame.Destination(home, 45, 80), 90, 320),
		sesame.Destination(sesame.Destination(sesame.Destination(home, 45, 80), 90, 320), 0, 320),
		sesame.Destination(sesame.Destination(home, 45, 80), 0, 320),
	}
	if err := platform.StartMission(area); err != nil {
		log.Fatal(err)
	}
	start := world.Clock.Now()
	links.Link("u2").AddOutage(start+60, start+100)
	fmt.Printf("t=  0: mission started, u2 link loss scheduled for t=[60, 100]\n")

	lostReported := false
	for world.Clock.Now() < start+1800 {
		if err := platform.Tick(); err != nil {
			log.Fatal(err)
		}
		st := platform.Status()
		for _, u := range st.UAVs {
			if u.ID == "u2" && u.LinkLost && !lostReported {
				lostReported = true
				fmt.Printf("t=%3.0f: u2 telemetry silent for %.0f s -> lost-link contingency (task redistributed)\n",
					world.Clock.Now()-start, u.TelemetryAgeS)
			}
		}
		if platform.MissionComplete() {
			break
		}
	}

	st := platform.Status()
	fmt.Printf("t=%3.0f: mission complete\n", world.Clock.Now()-start)
	for _, ev := range platform.Coordinator.History("u2") {
		if strings.HasPrefix(ev.Summary, "lost link:") {
			fmt.Printf("  EDDI event: %s\n", ev.Summary)
		}
	}
	for _, id := range []string{"u1", "u2", "u3"} {
		s := links.Stats()[id]
		fmt.Printf("  link %s: offered %d, delivered %d, duplicated %d, lost to outage %d\n",
			id, s.Offered, s.Delivered, s.Duplicated, s.OutageDropped)
	}
	fmt.Printf("  platform drops: %d, database retries: %d scheduled / %d succeeded\n",
		st.Drops.Total(), st.DBRetries.Scheduled, st.DBRetries.Succeeded)
}
