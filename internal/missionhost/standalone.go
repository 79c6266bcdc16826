package missionhost

import "sesame/internal/platform"

// FlyStandalone builds a Spec and flies it uninterrupted in a
// dedicated single-mission loop — exactly what a standalone process
// would run — and returns the mission digest. It is the reference a
// hosted run of the same Spec must reproduce bit-identically.
func FlyStandalone(spec Spec) (string, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	b, err := spec.build()
	if err != nil {
		return "", err
	}
	defer b.Platform.Close()
	if err := b.Platform.RunMission(b.End - b.World.Clock.Now()); err != nil {
		return "", err
	}
	return platform.Digest(b.Platform), nil
}
