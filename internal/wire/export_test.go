package wire

// Exported to this package's external tests, which import packages that
// import wire.
var (
	RoundTripSamples = append(append([]Message(nil), clientRoundTrips...), clusterRoundTrips...)
	ProtocolPin      = uint64(protocolPin)
)
