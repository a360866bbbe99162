package service

// PlantTap follows the session population for a consumer that reads plant
// state through Manager.Probes: Session is called at install with the
// session's id, Drop when the session leaves. The fleet control plane uses
// a tap to keep per-DC capacity ledgers fed from live engines without the
// service layer importing it. Like Config.Plant, the tap is nil-gated and
// never touches the step hot path.
type PlantTap interface {
	Session(id string)
	Drop(id string)
}
